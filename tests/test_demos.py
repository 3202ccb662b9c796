"""Each demo script runs to completion from a clean working directory, and
the two that print the noise-index threshold print rrcif.DEFAULT_THRESHOLD."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    assert _run([demo], tmp_path).strip()


@pytest.mark.parametrize("demo", DEMOS[:2], ids=[d.stem for d in DEMOS[:2]])
def test_demo_follows_the_default_threshold(demo, tmp_path):
    # the demo reads rrcif.DEFAULT_THRESHOLD, set here before any rrcif submodule loads
    code = "import runpy, sys, rrcif; rrcif.DEFAULT_THRESHOLD = 0.2; runpy.run_path(sys.argv[1], run_name='__main__')"
    out = _run(["-c", code, demo], tmp_path)
    assert "t=0.2" in out and "t=0.13" not in out
