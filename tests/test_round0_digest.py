"""Round 0 of every benchmark workload prints what perfbench/pinned.json pins.

The digest is recomputed in this process the way perfbench/worker.py
computes it: each op of round 0 at the pinned seed runs through
``cli.main`` with stdout captured, and the digest is the sha256 over
``f"{i}:{sha256(stdout)}\\n"`` for op i.  A change to any op's output shows
here, not only in a benchmark run.

Exit codes and stderr are pinned the same way, by the sha256 over
``f"{i}:{exit_code}:{sha256(stderr)}\\n"``, against the constants below.
Every exit code is 0; 13 ``basicset`` ops print ``warning:`` lines.
"""

import contextlib
import functools
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


STATUS_DIGESTS = {
    "schur-render": "4eb78fa8de9071f97d3965a9304f6d95d8b81081b192e059fa6f066ec2c160af",
    "decide": "6213cdf0256ec580cba57f338242111115bc21e0d255857f3a269fb7a45b8d11",
    "basicset": "9fa246993e14f3f983e2aeb684f6481dded096ab9350384237fc27aae580a74e",
    "verify": "32e412d888e8756991031f6099b7b779feadbffde7679c327a095bcdd6972afe",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _round0_digests(workload):
    """(stdout digest, exit-code and stderr digest) of round 0 at the pinned seed."""
    stdout_digest, status_digest = hashlib.sha256(), hashlib.sha256()
    for i, op in enumerate(workloads.round_ops(workload, workloads.DEFAULT_SEED, 0)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        stdout_digest.update(f"{i}:{_sha256(out.getvalue())}\n".encode())
        status_digest.update(f"{i}:{code}:{_sha256(err.getvalue())}\n".encode())
    return stdout_digest.hexdigest(), status_digest.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round0_stdout_matches_the_pinned_digest(workload):
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))["round0"][workload]
    assert _round0_digests(workload)[0] == pinned


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round0_exit_codes_and_stderr_match_the_pins(workload):
    assert _round0_digests(workload)[1] == STATUS_DIGESTS[workload]
