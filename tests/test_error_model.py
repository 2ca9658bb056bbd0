"""The program raises two exception types, and no invariant is an assert.

Every ``src/ariki`` module is parsed, not imported: bad input raises
``DomainError`` and a failed integrity check ``InternalError``; ``cli.py``
also raises ``FlagError`` and ``argparse.ArgumentTypeError`` while it reads
flags.  An ``assert`` would vanish under ``python -O``, and a bare
``except:`` would also catch ``KeyboardInterrupt`` and ``SystemExit``.
"""

import ast

import pytest
from source_trees import TREES, nodes

RAISED = {"DomainError", "InternalError"}
RAISED_BY_CLI = RAISED | {"FlagError", "argparse.ArgumentTypeError"}


def test_every_module_is_read():
    assert {"basicset.py", "cli.py", "errors.py", "exactalg.py", "schur.py", "verify.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_raises_name_the_two_error_types(name):
    allowed = RAISED_BY_CLI if name == "cli.py" else RAISED
    for node in nodes(name, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        assert exc is not None and ast.unparse(exc) in allowed, f"{name}:{node.lineno}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_assert_and_no_bare_except(name):
    assert [node.lineno for node in nodes(name, ast.Assert)] == []
    assert [node.lineno for node in nodes(name, ast.ExceptHandler) if node.type is None] == []
