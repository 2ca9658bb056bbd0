"""No oracle-only definition in the production modules outside an allowlist.

Independent oracles belong in ``verify`` and the tests, not on production
paths.  The production modules are parsed, not imported.  A public function,
class or method defined at the top level of a defining module is unread when
no production module reads its name, as a name or as an attribute, outside
its own body.  Each unread definition kept is named here with its reason, so
code that only an oracle calls has to be argued for, and an entry whose name
is read again has to go.
"""

import ast
from collections import Counter

from source_trees import TREES

DEFINING = ("combinatorics", "exactalg", "schur", "basicset")
READING = ("cli", "combinatorics", "exactalg", "schur", "basicset", "errors")

TRACER_TARGET = "a perfbench/tracing.py target; it moves once the tracer stops patching"
RING_API = "ring API that the tests and the fuzz suite build their references with"

ALLOWED = {
    "combinatorics.dominates": "README API, used by the dominance suite",
    "combinatorics.multiset_dominates": "README API, used by the dominance suite",
    "combinatorics.partitions_of": "named in the README's Layout section, used by the tests",
    "exactalg.MultiLaurent.one": RING_API,
    "exactalg.CyclotomicInt.from_int": RING_API,
    "exactalg.CyclotomicInt.zeta_power": RING_API,
    "exactalg.specialise": "an entry point of perfbench/oracles.py",
    "schur.spec_map_root_of_unity": "an entry point of perfbench/oracles.py",
    "schur.spec_map_for": "the semisimple suite's oracle specialises through it",
    "schur.schur_mathas": TRACER_TARGET,
    "schur.schur_gim": TRACER_TARGET,
    "schur.ariki_poly": TRACER_TARGET,
    "basicset.f_tilde": TRACER_TARGET,
    "basicset.uglov_multipartitions": "used by the examples suite and the tests",
}


def _reads(tree) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
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
                if not d.name.startswith("_") and reads[d.name] == _reads(d)[d.name]:
                    unread.add(f"{module}.{qualname}")
    return unread


def test_unread_definitions_are_allowlisted():
    unread = _unread_definitions()
    assert sorted(unread - set(ALLOWED)) == []
    # The allowlist holds only definitions that are still unread.
    assert sorted(set(ALLOWED) - unread) == []
