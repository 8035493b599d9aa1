"""Every narrated demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, subprocess_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=subprocess_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
