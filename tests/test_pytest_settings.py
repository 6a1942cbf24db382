"""The test settings in pyproject.toml report a failing hypothesis test.

Every warning is an error there.  When a hypothesis test fails, hypothesis's
pytest plugin imports libcst to suggest a patch, and where that import warns
(mypy_extensions' deprecation of TypedDict), the error aborted the whole
session with INTERNALERROR before any falsifying example was printed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_first_fails(n):
    assert n < 5


@settings(database=None, derandomize=True)
@given(st.integers())
def test_second_fails(n):
    assert n > -5
'''


def test_two_failing_hypothesis_tests_both_report_their_examples(tmp_path):
    planted = tmp_path / "test_planted.py"
    planted.write_text(_PLANTED, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(planted)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert out.count("Falsifying example") == 2, out
    assert "2 failed" in out, out
