"""No oracle-only definition in the production modules outside an allowlist.

Independent oracles belong in ``verify`` and the tests, not on production
paths.  The production modules are parsed, not imported.  A public function,
class or method defined at the top level of a defining module is unread when
no production module reads its name outside its own body: a function or class
as a name or as an attribute, a method as an attribute only, since a bare
name cannot reach it and a local variable of that name is no read.  Each unread definition kept is named here with its reason, so
code that only an oracle calls has to be argued for, and an entry whose name
is read again has to go.
"""

import ast
from collections import Counter

from source_trees import TREES

DEFINING = ("combinatorics", "exactalg", "schur", "basicset")
READING = ("cli", "combinatorics", "exactalg", "schur", "basicset", "errors")

TRACER_TARGET = "a perfbench/tracing.py target; it moves once the tracer stops patching"

ALLOWED = {
    "combinatorics.dominates": "README API, used by the dominance suite",
    "combinatorics.multiset_dominates": "README API, used by the dominance suite",
    "exactalg.CycloLaurent.valuation": "the reference that tests/test_exactalg.py compares u_valuation against",
    "exactalg.specialise": "an entry point of perfbench/oracles.py",
    "schur.spec_map_root_of_unity": "an entry point of perfbench/oracles.py",
    "schur.spec_map_for": "the semisimple suite's oracle specialises through it",
    "schur.schur_mathas": TRACER_TARGET,
    "schur.schur_gim": TRACER_TARGET,
    "schur.ariki_poly": TRACER_TARGET,
    "basicset.f_tilde": TRACER_TARGET,
}


def _reads(tree) -> Counter:
    """Name reads under their name, attribute reads under "." + their name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found["." + node.attr] += 1
    return found


def _unread_definitions() -> set[str]:
    reads = sum((_reads(TREES[f"{module}.py"]) for module in READING), Counter())
    unread = set()
    for module in DEFINING:
        for node in TREES[f"{module}.py"].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            for qualname, d in defs:
                # A bare name never reaches a method: it reads some other binding.
                keys = ["." + d.name] if "." in qualname else [d.name, "." + d.name]
                own = _reads(d)
                if not d.name.startswith("_") and all(reads[k] == own[k] for k in keys):
                    unread.add(f"{module}.{qualname}")
    return unread


def test_unread_definitions_are_allowlisted():
    unread = _unread_definitions()
    assert sorted(unread - set(ALLOWED)) == []
    # The allowlist holds only definitions that are still unread.
    assert sorted(set(ALLOWED) - unread) == []
