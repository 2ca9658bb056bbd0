"""Tests of the benchmark itself: input generation, statistics, tracing and checks.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
from collections import Counter

import pytest

import oracles
import run
import stats
import tracing
import worker
import workloads


# ---------------------------------------------------------------------------
# Generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    for index in (0, 3):
        assert workloads.round_ops(workload, 5, index) == workloads.round_ops(workload, 5, index)


@pytest.mark.parametrize("workload", ["schur-render", "decide", "basicset"])
def test_seeds_change_inputs_but_not_the_stratum_counts(workload):
    a = workloads.round_ops(workload, 1, 0)
    b = workloads.round_ops(workload, 2, 0)
    assert [op["argv"] for op in a] != [op["argv"] for op in b]
    assert Counter(op["stratum"] for op in a) == Counter(op["stratum"] for op in b)


def test_decide_round_puts_its_tail_in_the_composite_plateau():
    ops = workloads.round_ops("decide", 4, 0)
    counts = Counter(op["stratum"] for op in ops)
    assert counts["semisimple-composite-l3n4"] == 12
    assert counts["semisimple-prime-l3n4"] == 1
    # Each cheap semisimple cell meets every prime e in every round.
    primes = Counter(op["params"]["e"] for op in ops if op["stratum"] == "semisimple-prime-l2n3")
    assert set(primes) == set(workloads.PRIME_E)
    # p95 with ten or more samples beyond it: the tail is the 11th to 20th
    # largest op, inside the twelve (3, 4) composite ops under the few
    # heavier ones.
    pct, _, beyond = stats.tail(list(range(len(ops))))
    assert pct == 95.0 and 10 <= beyond <= 15


def test_verify_round_is_the_whole_scope_grid():
    ops = workloads.round_ops("verify", 3, 0)
    assert len(ops) == len(workloads.VERIFY_SCOPES)
    assert all(op["argv"][-1] == "--jobs=2" for op in ops)


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError):
        workloads.round_ops("nope", 0, 0)


def test_multipartition_enumeration_counts():
    # Bipartitions of 3: sum over k of p(k) p(3 - k) = 3 + 2 + 2 + 3.
    assert len(workloads.multipartitions(2, 3)) == 10
    assert len(workloads.partitions(10)) == 42


def test_structural_semisimplicity_matches_the_program():
    from ariki.schur import CycloSpec, is_semisimple

    cases = [
        (e, k, r, charges, n)
        for e in (2, 3, 4, 6)
        for k in (1,)
        for r in (1, 2)
        for charges in ((0,), (0, 1), (0, 3), (1, -1, 2))
        for n in (1, 2, 3)
    ]
    for e, k, r, charges, n in cases:
        expected = is_semisimple(CycloSpec(e, k, r, charges), len(charges), n)
        assert workloads.structurally_semisimple(e, k, r, charges, n) == expected, (e, k, r, charges, n)


def test_basicset_draws_are_not_semisimple_and_have_a_crystal():
    for index in range(3):
        for op in workloads.round_ops("basicset", 11, index):
            p = op["params"]
            mult = p.get("p", 1)
            assert (p["r"] * mult) % p["e"] != 0
            assert not workloads.structurally_semisimple(
                p["e"], p["k"], p["r"] * mult, tuple(p["charges"]) * mult, p["n"]
            )


# ---------------------------------------------------------------------------
# Statistics


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (1, 50.0, 0),
        (19, 50.0, 9),
        (20, 50.0, 10),
        (39, 50.0, 19),
        (40, 75.0, 10),
        (49, 75.0, 12),
        (50, 80.0, 10),
        (99, 80.0, 19),
        (100, 90.0, 10),
        (199, 90.0, 19),
        (200, 95.0, 10),
        (999, 95.0, 49),
        (1000, 99.0, 10),
        (9999, 99.0, 99),
        (10000, 99.9, 10),
    ],
)
def test_tail_percentile_at_the_sample_count_edges(n, pct, beyond):
    values = list(range(1, n + 1))
    got_pct, value, got_beyond = stats.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    # On 1..n the estimate sits at the percentile's rank, up to interpolation.
    assert abs(value - pct / 100 * (n + 1)) < 1.0


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))


def test_harrell_davis_quantile():
    assert stats.betainc(2, 3, 0.4) == pytest.approx(0.5248)
    assert stats.quantile(list(range(1, 101)), 0.5) == pytest.approx(50.5)
    assert stats.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert stats.quantile([2.0], 0.5) == pytest.approx(2.0)
    # Far-away order statistics barely count: moving the maximum leaves the
    # median of 101 samples where it was.
    values = list(range(101))
    moved = values[:-1] + [10_000]
    assert stats.quantile(moved, 0.5) == pytest.approx(stats.quantile(values, 0.5), abs=1e-6)


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = 2.75, 5.5, 8.25
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def _pass(latencies, shas, errors=None, failures=()):
    return {
        "latencies_s": latencies, "shas": shas, "errors": errors or [None] * len(shas),
        "argv": [["op", str(i)] for i in range(len(shas))], "failures": list(failures),
    }


def test_fastest_runs_takes_each_ops_minimum_and_flags_changed_output():
    lat_ms, failures = run.fastest_runs([
        _pass([0.003, 0.010], ["a", "b"]),
        _pass([0.002, 0.020], ["a", "b"]),
        _pass([0.004, 0.005], ["a", "c"]),
    ])
    assert lat_ms == pytest.approx([2.0, 5.0])
    assert [(f["op"], f["problem"]) for f in failures] == [(1, "pass 3: stdout differs from pass 1")]


def test_fastest_runs_keeps_first_pass_failures_and_later_errors():
    checked = {"op": 0, "argv": ["op", "0"], "problem": "wrong answer"}
    _, failures = run.fastest_runs([
        _pass([0.001], ["a"], failures=[checked]),
        _pass([0.001], ["a"], errors=["exit code 1: boom"]),
    ])
    assert [f["problem"] for f in failures] == ["wrong answer", "pass 2: exit code 1: boom"]


def test_fastest_runs_refuses_passes_of_different_lengths():
    with pytest.raises(run.BenchError):
        run.fastest_runs([_pass([0.001], ["a"]), _pass([], [])])


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2, reason="needs two CPUs")
def test_cpu_picker_pins_to_one_cpu_and_releases_all():
    cpus = os.sched_getaffinity(0)
    picker = worker.CpuPicker()
    try:
        picker.pick()
        assert len(os.sched_getaffinity(0)) == 1 and os.sched_getaffinity(0) <= cpus
        assert picker.moves == 1
        picker.pick()  # within PROBE_EVERY_S: no new probe
        assert picker.moves == 1
        picker.release()
        assert os.sched_getaffinity(0) == cpus
    finally:
        os.sched_setaffinity(0, cpus)


# ---------------------------------------------------------------------------
# Span arithmetic and patching


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0.5],  # 0
        ["a", 1.0, 3.0, 0, 0, 0.0],  # 1
        ["b", 2.0, 5.0, 0, 0, 0.0],  # 2: overlaps a; the union [1, 5] is covered once
        ["c", 3.0, 4.0, 2, 0, 0.0],  # 3: inside b
        ["d", 6.0, 7.0, 0, 0, 0.25],  # 4: with aggregated leaf calls
        ["e", 9.5, 12.0, 0, 0, 0.0],  # 5: only [9.5, 10] lies inside root
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 4.0 - 1.0 - 0.5 - 0.5, 2.0, 2.0, 1.0, 0.75, 2.5])
    by_name = tracing.self_time_by_name(spans + [["a", 20.0, 21.0, -1, 1, 0.0]])
    assert by_name["a"] == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_originals():
    import ariki.cli as cli
    import ariki.exactalg as exactalg
    import ariki.verify as verify

    originals = (cli.main, cli.schur_gim, exactalg.MultiLaurent.__mul__, verify.ProcessPoolExecutor)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with open(os.devnull, "w") as sink:
            import contextlib

            with contextlib.redirect_stdout(sink):
                assert cli.main(["semisimple", "--l=2", "--n=2", "--e=4", "--r=1", "--charges=0,1"]) == 0
    finally:
        tracer.restore()
    assert (cli.main, cli.schur_gim, exactalg.MultiLaurent.__mul__, verify.ProcessPoolExecutor) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["schur.is_semisimple"] == "cli.main"
    assert parents["exactalg.mul"] == "schur.ariki_poly"
    counts = tracer.deterministic_counts()
    # semisimple builds ariki_poly twice: once in is_semisimple, once for thetaP.
    assert counts["schur.ariki_poly.calls"] == 2
    assert counts["exactalg.specialise.calls"] == 2
    layers = tracer.layer_metrics()
    assert {name for name, *_ in tracing.LAYER_METRICS} == set(layers)
    assert layers["cli.self_s"] > 0


# ---------------------------------------------------------------------------
# Checks


def test_checks_catch_wrong_outputs():
    checker = oracles.Checker()
    text = oracles.summarise("schur-text", "cancel: q + 1\nmathas: q + 1\ngim: q + 1\nAGREE\n")
    assert checker.check({"kind": "schur-text"}, text) is None
    bad = oracles.summarise("schur-text", "cancel: q + 1\nmathas: q + 2\ngim: q + 1\nAGREE\n")
    assert checker.check({"kind": "schur-text"}, bad) is not None
    js = oracles.summarise("schur-json", json.dumps({"cancel": "q + 1", "mathas": "q + 1", "gim": "q + 1", "agree": True}))
    assert checker.check({"kind": "schur-json"}, js, text) is None
    assert checker.check({"kind": "schur-json"}, js, bad) is not None

    op = {"kind": "semisimple", "params": {"l": 1, "n": 2, "e": 2, "k": 1, "r": 1, "charges": [0]}}
    right = {"text": json.dumps({"verdict": "NOT SEMISIMPLE", "thetaP": "0", "conductor": 2})}
    wrong = {"text": json.dumps({"verdict": "SEMISIMPLE", "thetaP": "0", "conductor": 2})}
    assert checker.check(op, right) is None
    assert checker.check(op, wrong) is not None

    op = {"kind": "defect0-all", "params": {"l": 1, "n": 2, "e": 3, "v": [0]}}
    assert checker.check(op, {"text": "[[2]]\n[[1,1]]\n"}) is None
    assert checker.check(op, {"text": "[[2]]\n"}) is not None


def test_basicset_check_uses_independent_counts():
    checker = oracles.Checker()
    # G(1,1,4) at e' = 2: the 2-regular partitions of 4 are [4] and [3,1].
    op = {"kind": "basicset", "params": {"l": 1, "n": 4, "e": 2, "k": 1, "r": 1, "charges": [0]}}
    good = {"text": json.dumps({"elements": [[[4]], [[3, 1]]]})}
    assert checker.check(op, good) is None
    missing = {"text": json.dumps({"elements": [[[4]]]})}
    assert checker.check(op, missing) is not None
    irregular = {"text": json.dumps({"elements": [[[4]], [[2, 2]]]})}
    assert checker.check(op, irregular) is not None


def test_regular_partition_counts_match_enumeration():
    for e in (2, 3, 5):
        counts = oracles.regular_partition_counts(e, 12)
        for n in range(13):
            assert counts[n] == sum(1 for p in workloads.partitions(n) if oracles.e_regular(p, e))


# ---------------------------------------------------------------------------
# Manifest


def test_manifest_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    e2e = {name: (unit, better) for name, unit, better in run.E2E_METRICS}
    for m in bench["end_to_end"]:
        assert e2e[m["name"]] == (m["unit"], m["better"])
        assert 0 < m["bound"] <= 0.25
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
