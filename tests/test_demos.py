"""The narrative demos and the README quick start run to completion
against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 07 runs 2.1-2.7 s of Monte Carlo on a 2-core machine (three runs), most
# of it the Poisson box, drawn from the product of its bands
DEMOS = [
    "01_beam_geometry.py",
    "02_cloud_expansion.py",
    "03_effective_number.py",
    "04_saturation.py",
    "05_number_fluctuations.py",
    "06_cavity_detuning_noise.py",
    "07_monte_carlo_check.py",
]


def run_fresh(args, cwd):
    """Run a Python interpreter on args with src/ on its path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_fresh([str(ROOT / "demos" / demo)], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    result = run_fresh(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
