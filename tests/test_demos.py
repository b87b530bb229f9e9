"""Each demo runs as a script in a fresh interpreter that turns every warning
into an error: it exits 0 and prints no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import admmkit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_the_demo_runs_cleanly(tmp_path, demo):
    # in a temp dir, so the CSV a demo writes lands there
    path = [str(Path(admmkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
