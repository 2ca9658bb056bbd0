"""The bindings that perfbench/tracing.py patches must exist.

The benchmark's tracer replaces functions at the module attribute their
caller looks up (for example ``ariki.cli.run_suites`` and
``ariki.verify.ProcessPoolExecutor``).  A refactor that drops or renames one
of them breaks ``--trace 1``; this test makes that break show here.
"""

import importlib.util
from pathlib import Path

from test_basicset import _reference_levels

from ariki import cli, verify
from ariki.basicset import charge_for, dm_partition
from ariki.schur import CycloSpec


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore(capsys):
    originals = (cli.main, cli.run_suites, cli.schur_gim, verify.ProcessPoolExecutor)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.run_suites is not originals[1]
        # verify reaches the suites through the patched binding, so its counters fill.
        assert cli.main(["verify", "--suite", "examples"]) == 0
        assert capsys.readouterr().out == "examples: PASS (21 checks)\n"
        assert tracer.counters["verify.checks"] == 21
        assert tracer.counters["verify.run_suites.calls"] == 1
    finally:
        tracer.restore()
    assert (cli.main, cli.run_suites, cli.schur_gim, verify.ProcessPoolExecutor) == originals


def test_crystal_vertices_are_counted(capsys):
    # Two classes of indices, (0, 2) and (1,): uglov_levels runs once for each.
    spec, l, n = CycloSpec(e=12, k=1, r=2, charges=(0, -3, -2)), 3, 6
    dm = dm_partition(spec, l, n)
    expected = sum(
        len(layer)
        for i, cls in enumerate(dm.classes)
        for layer in _reference_levels(len(cls), n, charge_for(dm, i, spec))
    )
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        argv = ["basicset", "--l", "3", "--n", "6", "--e", "12", "--r", "2", "--charges", "0,-3,-2"]
        assert cli.main(argv) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert len(dm.classes) == 2 and expected > 0
    assert tracer.counters["basicset.uglov_levels.vertices"] == expected
