"""Each demo, and README's python blocks as one script, runs in a fresh
interpreter that turns every warning into an error: it exits 0 and prints no
traceback."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import admmkit

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _runs_cleanly(script, cwd):
    # in a temp dir, so the CSV a script writes lands there
    path = [str(Path(admmkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_the_demo_runs_cleanly(tmp_path, demo):
    _runs_cleanly(demo, tmp_path)


def test_the_readme_code_blocks_run_cleanly(tmp_path):
    # the diagnostics sketch reads the quick start's instance, so the blocks run in order
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    script = tmp_path / "readme.py"
    script.write_text("\n".join(blocks))
    _runs_cleanly(script, tmp_path)
