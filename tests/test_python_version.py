"""Every source and test file parses as the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# A regex, not tomllib: tomllib is new in 3.11.
REQUIRES = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def test_requires_python_is_read():
    assert REQUIRES, "no requires-python = \">=X.Y\" line in pyproject.toml"
    assert (int(REQUIRES[1]), int(REQUIRES[2])) == (3, 10)
    assert len(FILES) > 10


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_declared_version(path):
    version = (int(REQUIRES[1]), int(REQUIRES[2]))
    ast.parse(path.read_text(), filename=str(path), feature_version=version)
