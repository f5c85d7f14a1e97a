"""The suite's warning filters turn numeric and deprecation warnings into
errors; a failing property test must still be reported as one failure,
not abort the session before the tests after it run."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis reports the failing example through libcst, whose import
    # of mypy_extensions raised a DeprecationWarning: under the suite's
    # error::DeprecationWarning that was an INTERNALERROR, and test_passes
    # never ran
    (tmp_path / "test_demo.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
