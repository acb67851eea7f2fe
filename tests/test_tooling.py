"""The test configuration itself: under the repository's warning filters
a failing property test still reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_prints_its_example(tmp_path):
    # hypothesis's report hook touches a deprecated name; were its warning
    # an error, pytest would stop with INTERNALERROR and no example
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 10\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
