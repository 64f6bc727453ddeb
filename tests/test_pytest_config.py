"""The repository's pytest configuration: a failing Hypothesis property is
reported as one failure and the session goes on to the later tests."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_later_test_still_runs():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # Hypothesis's failure report triggers a DeprecationWarning that the
    # warnings-as-errors setting would turn into INTERNALERROR.
    (tmp_path / "test_sample.py").write_text(_FILE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
