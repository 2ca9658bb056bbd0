"""Every name a production module imports is used there, and none is private.

Each ``src/ariki`` module is parsed, not imported.  A name counts as used
when it is read anywhere in the module, annotations included.  An import
left behind after its last use moved elsewhere fails here.  ``__init__.py``
is exempt from that rule: its imports are the package's exports.  No module
imports another module's private (underscore) name.
"""

import ast

import pytest
from source_trees import TREES, nodes

MODULES = sorted(set(TREES) - {"__init__.py"})

# Unused on purpose: the benchmark's tracer (perfbench/tracing.py) patches
# these module attributes, so the imports must stay until it stops patching.
TRACER_TARGETS = {
    "cli.py": {"ariki_poly", "schur_cancellation_free", "schur_gim", "schur_mathas", "specialise"},
    "schur.py": {"enumerate_multipartitions", "specialise"},
}


def test_every_module_is_read():
    assert {"basicset.py", "cli.py", "exactalg.py", "schur.py", "verify.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    imported = {}
    for node in nodes(name, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in nodes(name, ast.Name)}
    allowed = TRACER_TARGETS.get(name, set())
    unused = {n: line for n, line in imported.items() if n not in used and n not in allowed}
    assert unused == {}, name
    # The allowlist holds only imports that are still there and still unused.
    assert {n for n in allowed if n in imported and n not in used} == allowed, name


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_private_name_is_imported(name):
    private = [
        f"{alias.name}:{node.lineno}"
        for node in nodes(name, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], name
