"""Round 0 of every benchmark workload prints what perfbench/pinned.json pins.

The digest is recomputed in this process the way perfbench/worker.py
computes it: each op of round 0 at the pinned seed runs through
``cli.main`` with stdout captured, and the digest is the sha256 over
``f"{i}:{sha256(stdout)}\\n"`` for op i.  A change to any op's output shows
here, not only in a benchmark run.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from ariki import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round0_stdout_matches_the_pinned_digest(workload):
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))["round0"][workload]
    digest = hashlib.sha256()
    for i, op in enumerate(workloads.round_ops(workload, workloads.DEFAULT_SEED, 0)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(op["argv"])
        digest.update(f"{i}:{hashlib.sha256(out.getvalue().encode()).hexdigest()}\n".encode())
    assert digest.hexdigest() == pinned
