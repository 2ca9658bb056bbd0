"""End-to-end benchmark of the ariki CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: a fresh worker
interpreter calls ``ariki.cli.main(argv)`` in a closed loop (one client, no
think time) over the rounds of generated ops that --seconds buys (see
workloads.rounds_for), and times CLI cold starts (setup_s) between rounds.
This pass is made PASSES times over the same ops, each in a fresh
interpreter, and each op's latency is the fastest of its runs: on a
shared 2-core virtual machine the same loop can run 1.7x slower for
seconds at a time, and the fastest run of an op is what a change to the
program moves, not the machine's swings.

--trace 1 runs one round three times, each in a fresh interpreter: once
untraced (with the output checks) and twice traced.  It reports the per-layer
metrics, the tracing overhead, and fails if any deterministic count
differs between the two traced passes.

Every op's output is checked after its loop (see oracles.py); a failed op
counts towards error_rate.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import stats
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline")

PASSES = 3
# CLI cold starts per run, spread over its rounds and passes.
SETUP_SAMPLES = 15
TRACE_ROUNDS = 1
IMPORT_SAMPLES = 5
# Every run, including its set-up and checks, must end within this budget.
RUN_BUDGET_S = 170.0

E2E_METRICS = (
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def run_worker(job: dict, deadline: float) -> dict:
    fd, out_path = tempfile.mkstemp(dir=OUT, suffix=".json")
    os.close(fd)
    try:
        job = dict(job, root=ROOT, out=out_path)
        proc = subprocess.run(
            worker.python_cmd(os.path.join(HERE, "worker.py")),
            input=json.dumps(job), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(out_path)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_ratios(metrics: dict, path: str) -> None:
    """Print each metric's ratio to the same metric in the previous results file."""
    prev_path = path if os.path.exists(path) else os.path.join(BASELINE, os.path.basename(path))
    if not os.path.exists(prev_path):
        print("no previous results file to compare with")
        return
    with open(prev_path, encoding="utf-8") as fh:
        previous = json.load(fh)
    print(f"ratios against {os.path.relpath(prev_path, ROOT)} (seed {previous.get('seed')}):")
    for name, entry in metrics.items():
        old = previous.get("metrics", {}).get(name, {}).get("value")
        if isinstance(old, (int, float)) and old:
            print(f"  {name:48s} {entry['value'] / old:8.3f}  (base {_fmt(old)})")


def fastest_runs(passes: list[dict]) -> tuple[list[float], list[dict]]:
    """Each op's fastest latency (ms) over the passes, and the failed runs.

    The first pass checks every output; a later run of an op fails if it
    raised or if its stdout differs from the first pass's.
    """
    first = passes[0]
    failures = list(first["failures"])
    for number, result in enumerate(passes[1:], start=2):
        if len(result["shas"]) != len(first["shas"]):
            raise BenchError(f"pass {number} ran {len(result['shas'])} ops, pass 1 ran {len(first['shas'])}")
        for i, (sha, error) in enumerate(zip(result["shas"], result["errors"])):
            if error is not None or sha != first["shas"][i]:
                failures.append({"op": i, "argv": first["argv"][i],
                                 "problem": f"pass {number}: " + (error or "stdout differs from pass 1")})
    lat_ms = [min(times) * 1000.0 for times in zip(*(result["latencies_s"] for result in passes))]
    return lat_ms, failures


def end_to_end(args, deadline: float) -> tuple[dict, int, int, list[str]]:
    rounds = workloads.rounds_for(args.workload, args.seconds)
    job = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "trace": False,
           "setup_per_round": math.ceil(SETUP_SAMPLES / (rounds * PASSES))}
    passes = [run_worker(dict(job, check=i == 0), deadline) for i in range(PASSES)]
    first = passes[0]
    problems = []
    for result in passes:
        problems += [problem for problem in check_pinned(args, result) if problem not in problems]
    lat_ms, failures = fastest_runs(passes)
    busy_s = sum(lat_ms) / 1000.0
    attempted, failed = len(lat_ms) * PASSES, len(failures)
    setup_s = [t for result in passes for t in result["setup_s"]]
    pct, tail_ms, beyond = stats.tail(lat_ms)
    values = {
        "ops_per_s": len(lat_ms) / busy_s,
        "latency_p50_ms": stats.quantile(lat_ms, 0.5),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in passes),
    }
    units = {name: unit for name, unit, _ in E2E_METRICS}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, no think time")
    print(f"  {len(lat_ms)} ops in {rounds} rounds, run in {PASSES} passes; "
          f"busy per pass " + ", ".join(f"{result['busy_s']:.3f}" for result in passes)
          + f" s; fastest run of each op sums to {busy_s:.3f} s; CPU moves per pass "
          + ", ".join(str(result["cpu_moves"]) for result in passes))
    for name, entry in metrics.items():
        print(f"  {name:16s} {_fmt(entry['value']):>12s} {entry['unit']}")
    # error_rate can be 0, and metrics listed in BENCHMARK.json must never
    # be, so it is printed here and carried by `attempted` and `failed`.
    print(f"  {'error_rate':16s} {_fmt(failed / attempted):>12s} ratio")
    print(f"  latency_tail_ms is p{pct:g} of {len(lat_ms)} samples, {beyond} beyond it")
    print(f"  setup_s is the median of {len(setup_s)} cold starts: " + ", ".join(f"{t:.4f}" for t in setup_s))
    print(f"  checked outputs: {json.dumps(first['coverage'], sort_keys=True)}")
    print_strata(first["strata"], lat_ms)
    for failure in failures[:20]:
        print(f"  FAILED op {failure['op']}: {' '.join(failure['argv'])}: {failure['problem']}")
    return metrics, attempted, failed, problems


def print_strata(strata: list[str], lat_ms: list[float], top: int = 8) -> None:
    """The strata that took the most busy time, with their op counts and medians."""
    by_stratum: dict[str, list[float]] = {}
    for stratum, took in zip(strata, lat_ms):
        by_stratum.setdefault(stratum, []).append(took)
    ranked = sorted(by_stratum.items(), key=lambda kv: -sum(kv[1]))
    print(f"  busiest strata of {len(ranked)}:")
    for stratum, times in ranked[:top]:
        share = sum(times) / sum(lat_ms)
        print(f"    {stratum:36s} {len(times):4d} ops  {share:6.1%} of busy  median {statistics.median(times):9.2f} ms")


def check_pinned(args, result: dict) -> list[str]:
    """Compare stdout with the digests pinned when the benchmark was defined."""
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    problems = []
    if any(out != pinned["setup_stdout"] for out in result["setup_stdout"]):
        problems.append(f"minimal command printed {result['setup_stdout']!r}, pinned {pinned['setup_stdout']!r}")
    if args.seed == workloads.DEFAULT_SEED:
        if result["round0_digest"] != pinned["round0"].get(args.workload):
            problems.append(f"round-0 stdout digest {result['round0_digest']} differs from the pinned digest")
    return problems


def traced(args, deadline: float) -> tuple[dict, int, int, list[str]]:
    job = {"workload": args.workload, "seed": args.seed, "rounds": TRACE_ROUNDS}
    plain = run_worker(dict(job, trace=False, check=True, setup_per_round=1), deadline)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    first = run_worker(dict(job, trace=True, spans_path=spans_path), deadline)
    second = run_worker(dict(job, trace=True), deadline)
    problems = check_pinned(args, plain)
    if not (plain["round0_digest"] == first["round0_digest"] == second["round0_digest"]):
        problems.append("stdout differs between the untraced and traced passes")
    unsteady = [
        name for name in sorted(set(first["counts"]) | set(second["counts"]))
        if first["counts"].get(name) != second["counts"].get(name)
    ]
    problems += [
        f"deterministic count {name} differs between traced passes: "
        f"{first['counts'].get(name)} != {second['counts'].get(name)}"
        for name in unsteady
    ]
    import_times = [worker.import_time(SRC) for _ in range(IMPORT_SAMPLES)]
    layers = {}
    for name, unit, _, _ in tracing.LAYER_METRICS:
        if name == "cli.import_s":
            value = statistics.median(import_times)
        elif name == "trace.overhead":
            value = (first["busy_s"] + second["busy_s"]) / 2 / plain["busy_s"]
        elif tracing.is_deterministic(name):
            value = first["layers"][name]
        else:
            value = (first["layers"][name] + second["layers"][name]) / 2
        layers[name] = {"value": value, "unit": unit}
    attempted, failed = len(plain["latencies_s"]), len(plain["failures"])
    print(f"workload {args.workload}, seed {args.seed}: traced run of {TRACE_ROUNDS} round(s), {attempted} ops")
    print(f"  untraced busy {plain['busy_s']:.3f} s; traced busy {first['busy_s']:.3f} s and {second['busy_s']:.3f} s")
    print(f"  {first['spans']} spans written to {os.path.relpath(spans_path, ROOT)}")
    if args.workload == "verify":
        print("  spans and counters inside verify's pool worker processes are not collected")
    moves = {name: m for name, _, _, m in tracing.LAYER_METRICS}
    for name, entry in layers.items():
        print(f"  {name:48s} {_fmt(entry['value']):>14s} {entry['unit']:6s} moves {moves[name]}")
    print(f"  deterministic counts identical across traced passes: {not unsteady}")
    for failure in plain["failures"][:20]:
        print(f"  FAILED op {failure['op']}: {' '.join(failure['argv'])}: {failure['problem']}")
    return layers, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "ariki", "cli.py")):
        print(f"error: no program to benchmark: {os.path.join(SRC, 'ariki', 'cli.py')} is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced(args, deadline)
        else:
            metrics, attempted, failed, problems = end_to_end(args, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    results_path = os.path.join(OUT, f"{args.workload}-trace{args.trace}.json")
    print_ratios(metrics, results_path)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
