"""Every module of the package, of its tests, of its demos and of its
benchmark parses at the Python floor that pyproject.toml declares, whatever
interpreter runs the suite."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
MODULES = sorted(path.relative_to(ROOT).as_posix()
                 for folder in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_floor_is_python_3_10():
    assert FLOOR == (3, 10)


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_at_the_floor(module):
    ast.parse((ROOT / module).read_text(encoding="utf-8"), filename=module, feature_version=FLOOR)
