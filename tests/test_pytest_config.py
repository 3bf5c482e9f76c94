"""The suite's own configuration: a failing property fails one test, not the run.

pyproject turns every warning into an error.  When a ``hypothesis``
property fails, hypothesis's failure report imports libcst, whose import
raises mypy_extensions' ``TypedDict`` DeprecationWarning inside a pytest
hook; as an error that aborts the whole session (exit 3) and the tests
after the failure never run.  The case below runs pytest, with the
repository's pyproject, in a fresh interpreter on a file holding one
failing derandomized property and one passing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(st.integers(0, 10))
def test_failing_property(n):
    assert n < 0


def test_after_the_failure():
    pass
"""


def test_failing_property_fails_only_its_own_test(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
