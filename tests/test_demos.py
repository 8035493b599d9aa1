"""Every narrated demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfsimilar

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = str(Path(selfsimilar.__file__).parents[1])


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
