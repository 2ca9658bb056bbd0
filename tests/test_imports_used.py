"""Every name a production module imports is used there.

Each ``src/ariki`` module but ``__init__.py`` (whose imports are the
package's exports) is parsed, not imported.  A name counts as used when it
is read anywhere in the module, annotations included.  An import left behind
after its last use moved elsewhere fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ariki"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Unused on purpose: the benchmark's tracer (perfbench/tracing.py) patches
# these module attributes, so the imports must stay until it stops patching.
TRACER_TARGETS = {
    "cli.py": {"ariki_poly", "schur_cancellation_free", "schur_gim", "schur_mathas", "specialise"},
    "schur.py": {"enumerate_multipartitions", "specialise"},
}


def _imported_and_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


def test_every_module_is_read():
    assert {"basicset.py", "cli.py", "exactalg.py", "schur.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    imported, used = _imported_and_used(path)
    allowed = TRACER_TARGETS.get(path.name, set())
    unused = {name: line for name, line in imported.items() if name not in used and name not in allowed}
    assert unused == {}, path.name
    # The allowlist holds only imports that are still there and still unused.
    assert {name for name in allowed if name in imported and name not in used} == allowed, path.name
