"""No module-level cache outside a short allowlist.

A module-level ``lru_cache`` is global mutable state: it outlives every call,
grows without bound unless sized, and hides the cost of what it caches from
any per-call measurement.  Each one kept is named here with its reason, so a
new one has to be argued for.
"""

import importlib
import inspect
import pkgutil

import ariki

ALLOWED = {
    "cli._build_parser": "one argparse tree per process; every call gets a fresh Namespace",
    "combinatorics._empty_part": "keyed by (charge, size), reused by every a-value of one charge",
    "exactalg.cyclotomic_polynomial": "Phi_n depends on n only and is read by every reduction modulo it",
    "exactalg._modulus": "the reduction data of Phi_n, built once per conductor",
}


def _module_caches() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(ariki.__path__):
        module = importlib.import_module(f"ariki.{info.name}")
        for name, obj in vars(module).items():
            if callable(obj) and hasattr(obj, "cache_info") and inspect.getmodule(obj) is module:
                found.add(f"{info.name}.{name}")
    return found


def test_module_caches_are_allowlisted():
    assert _module_caches() == set(ALLOWED)
