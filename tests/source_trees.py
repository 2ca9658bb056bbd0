"""The ``src/ariki`` modules, parsed once for the source-rule tests.

``test_error_model``, ``test_imports_used`` and ``test_oracle_boundary``
check rules on the source of every production module.  They read the trees
parsed here, keyed by file name, so each module is parsed once per test run
and not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ariki"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def nodes(name, kind):
    """Every node of type ``kind`` in the module ``name`` (a file name)."""
    return [node for node in ast.walk(TREES[name]) if isinstance(node, kind)]
