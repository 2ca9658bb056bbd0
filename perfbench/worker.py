"""One benchmark pass, in a fresh interpreter started by run.py.

Reads a job (JSON) on stdin, imports ``ariki.cli`` from the checkout's
``src``, and calls ``ariki.cli.main(argv)`` in-process for each generated
op, one at a time with no think time (a closed loop with one client), for
the job's number of rounds.  A pass may also time CLI cold starts between
rounds (``setup_per_round``) and, after reading peak RSS at the end of the
loop, check every op's output (``check``).  A traced pass records spans and
counters instead.  Before each op that starts no processes, a pass pins
itself to the CPU that currently runs a probe loop fastest (CpuPicker).
The result is written as JSON to the job's ``out`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import oracles
import workloads
from tracing import Tracer


# The CLI cold start: a fresh interpreter imports ariki.cli and runs the
# smallest command.
SETUP_ARGV = ["schur", "--lambda", "[[1],[1]]"]
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import ariki.cli; sys.exit(ariki.cli.main(sys.argv[2:]))"


# Each virtual CPU of the shared host this was built on often runs the same
# Python loop 1.5x slower than the other one, in spells of seconds, while
# the best of the two stays within a few percent.  A pass therefore moves
# itself, at most every PROBE_EVERY_S and outside the timed region, to the
# CPU on which a short probe loop runs fastest.  Ops that start worker
# processes are not pinned: their workers keep every CPU.
PROBE_LOOPS = 10_000
PROBE_REPEATS = 2
PROBE_EVERY_S = 0.2


def _probe() -> float:
    start = perf_counter()
    x = 0
    for j in range(PROBE_LOOPS):
        x += j * j % 7
    return perf_counter() - start


class CpuPicker:
    """Keeps the process on the CPU where the probe loop runs fastest."""

    def __init__(self) -> None:
        self.cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.last = -math.inf
        self.current = None
        self.moves = 0

    def pick(self) -> None:
        if len(self.cpus) < 2 or perf_counter() - self.last < PROBE_EVERY_S:
            return
        timings = {}
        for cpu in sorted(self.cpus):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = min(_probe() for _ in range(PROBE_REPEATS))
        best = min(timings, key=timings.get)
        os.sched_setaffinity(0, {best})
        self.moves += best != self.current
        self.current, self.last = best, perf_counter()

    def release(self) -> None:
        if len(self.cpus) >= 2 and self.current is not None:
            os.sched_setaffinity(0, self.cpus)
            self.current, self.last = None, -math.inf


def python_cmd(*args: str) -> list[str]:
    # -E ignores PYTHON* variables and -s the user site, so the program is
    # imported from the checkout and nowhere else.
    return [sys.executable, "-E", "-s", *args]


IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import ariki.cli; print(time.perf_counter() - start)"
)


def import_time(src: str) -> float:
    """Seconds a fresh interpreter takes to import ariki.cli."""
    proc = subprocess.run(python_cmd("-c", IMPORT_CODE, src), capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def cold_start(src: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh CLI invocation of the minimal command."""
    start = perf_counter()
    proc = subprocess.run(python_cmd("-c", SETUP_CODE, src, *SETUP_ARGV), capture_output=True, text=True, timeout=60)
    took = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"minimal command exited {proc.returncode}: {proc.stderr.strip()}")
    return took, proc.stdout


def run_op(cli, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op, not a failed run
        rc = None
        error = traceback.format_exc(limit=4)
    took = perf_counter() - start
    stdout = out.getvalue()
    if rc != 0 and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()[:300]}"
    summary = None
    if error is None:
        try:
            summary = oracles.summarise(op["kind"], stdout)
        except (ValueError, KeyError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
    return {
        "latency_s": took,
        "bytes": len(stdout.encode()),
        "sha": hashlib.sha256(stdout.encode()).hexdigest(),
        "error": error,
        "summary": summary,
    }


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import ariki.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"ariki was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if job["trace"] else None
    ops: list[dict] = []
    records: list[dict] = []
    setup_s: list[float] = []
    setup_stdout: set[str] = set()
    busy = 0.0
    picker = CpuPicker()
    if tracer is not None:
        tracer.install()
    try:
        for round_index in range(job["rounds"]):
            for op in workloads.round_ops(job["workload"], job["seed"], round_index):
                if op["params"].get("jobs", 1) > 1:
                    picker.release()
                else:
                    picker.pick()
                if tracer is not None:
                    tracer.op = len(records)
                rec = run_op(cli, op)
                rec["round"] = round_index
                busy += rec["latency_s"]
                ops.append(op)
                records.append(rec)
            for _ in range(job.get("setup_per_round", 0)):
                picker.pick()
                took, stdout = cold_start(src)
                setup_s.append(took)
                setup_stdout.add(stdout)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    round0 = hashlib.sha256()
    for i, rec in enumerate(records):
        if rec["round"] == 0:
            round0.update(f"{i}:{rec['sha']}\n".encode())

    result = {
        "rounds": job["rounds"],
        "setup_s": setup_s,
        "setup_stdout": sorted(setup_stdout),
        "busy_s": busy,
        "cpu_moves": picker.moves,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [rec["latency_s"] for rec in records],
        "shas": [rec["sha"] for rec in records],
        "errors": [rec["error"] for rec in records],
        "argv": [op["argv"] for op in ops],
        "strata": [op["stratum"] for op in ops],
        "stdout_bytes": sum(rec["bytes"] for rec in records),
        "round0_digest": round0.hexdigest(),
        "failures": [],
        "coverage": {},
    }
    if job.get("check"):
        checker = oracles.Checker()
        partners = {}
        for op, rec in zip(ops, records):
            if op["kind"] == "schur-text" and rec["summary"] is not None:
                partners[(rec["round"], op["params"]["pair"])] = rec["summary"]
        for i, (op, rec) in enumerate(zip(ops, records)):
            problem = rec["error"]
            if problem is None:
                partner = partners.get((rec["round"], op["params"].get("pair")))
                try:
                    problem = checker.check(op, rec["summary"], partner)
                except Exception:  # a check that cannot read the output fails the op
                    problem = "check raised: " + traceback.format_exc(limit=4)
            if problem is not None:
                result["failures"].append({"op": i, "argv": op["argv"], "problem": problem})
        result["coverage"] = dict(checker.coverage)
    else:
        result["failures"] = [
            {"op": i, "argv": op["argv"], "problem": rec["error"]}
            for i, (op, rec) in enumerate(zip(ops, records))
            if rec["error"] is not None
        ]
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = result["stdout_bytes"]
        counts = tracer.deterministic_counts()
        counts["cli.stdout_bytes"] = result["stdout_bytes"]
        result["layers"] = layers
        result["counts"] = counts
        result["spans"] = len(tracer.spans)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
