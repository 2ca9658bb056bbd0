"""The bindings that perfbench/tracing.py patches must exist.

The benchmark's tracer replaces functions at the module attribute their
caller looks up (for example ``ariki.cli.run_suites`` and
``ariki.verify.ProcessPoolExecutor``).  A refactor that drops or renames one
of them breaks ``--trace 1``; this test makes that break show here.
"""

import importlib.util
from pathlib import Path

from ariki import cli, verify


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
