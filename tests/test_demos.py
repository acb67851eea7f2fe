"""The demo scripts run to the end without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path,
                           "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
