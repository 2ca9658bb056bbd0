"""The repo's pytest configuration reports a failing hypothesis test and runs on.

``filterwarnings = ["error"]`` turns warnings into errors.  When a ``@given``
test fails, hypothesis's report hook may import libcst, whose import warns;
unless pyproject.toml ignores that warning, pytest stops with INTERNALERROR
(exit 3) and runs no later test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD)
    # cwd=tmp_path keeps the child's .hypothesis example database out of the checkout.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
