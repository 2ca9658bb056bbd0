"""The program raises two exception types, and no invariant is an assert.

Every ``src/ariki`` module is parsed, not imported: bad input raises
``DomainError`` and a failed integrity check ``InternalError``; ``cli.py``
also raises ``FlagError`` and ``argparse.ArgumentTypeError`` while it reads
flags.  An ``assert`` would vanish under ``python -O``, and a bare
``except:`` would also catch ``KeyboardInterrupt`` and ``SystemExit``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ariki"
MODULES = sorted(SRC.glob("*.py"))
RAISED = {"DomainError", "InternalError"}
RAISED_BY_CLI = RAISED | {"FlagError", "argparse.ArgumentTypeError"}


def _nodes(path, kind):
    return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, kind)]


def test_every_module_is_read():
    assert {"cli.py", "errors.py", "exactalg.py", "schur.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_name_the_two_error_types(path):
    allowed = RAISED_BY_CLI if path.name == "cli.py" else RAISED
    for node in _nodes(path, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        assert exc is not None and ast.unparse(exc) in allowed, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_and_no_bare_except(path):
    assert [node.lineno for node in _nodes(path, ast.Assert)] == []
    assert [node.lineno for node in _nodes(path, ast.ExceptHandler) if node.type is None] == []
