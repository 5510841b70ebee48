"""The narrative demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 07 runs about 13 s of Monte Carlo; test_mc_oracle covers the API it uses
DEMOS = [
    "01_beam_geometry.py",
    "02_cloud_expansion.py",
    "03_effective_number.py",
    "04_saturation.py",
    "05_number_fluctuations.py",
    "06_cavity_detuning_noise.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
