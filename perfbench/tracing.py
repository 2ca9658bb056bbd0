"""Spans and counters recorded around the program's layer boundaries.

The program is not instrumented.  Instead, each public function is replaced,
at the binding its caller looks up, by a wrapper that records a span (name,
start, end, parent span, op id) and updates counters.  Spans are kept in
memory and written out when the run ends; self time is a span's duration
minus the part of it that its child spans cover.

Work done inside ``verify``'s pool worker processes runs wrappers in the
children, whose spans and counters are lost with them: only the parent's
share of a verify suite is traced.
"""

from __future__ import annotations

import gzip
import importlib
from collections import defaultdict
from time import perf_counter

# name, unit, better, and the end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.self_s", "s", "lower", "setup_s on every workload; latency_p50_ms on decide"),
    ("cli.stdout_bytes", "bytes", "lower", "setup_s on every workload (byte-identical stdout)"),
    ("combinatorics.enumerate_multipartitions.calls", "count", "lower", "latency_p50_ms on decide"),
    ("combinatorics.enumerate_multipartitions.self_s", "s", "lower", "latency_p50_ms on decide"),
    ("combinatorics.enumerate_multipartitions.items", "count", "lower", "latency_p50_ms on decide"),
    ("combinatorics.a_value.self_s", "s", "lower", "latency_p50_ms on decide"),
    ("exactalg.product_divide.calls", "count", "lower", "ops_per_s and latency_tail_ms on schur-render"),
    ("exactalg.product_divide.self_s", "s", "lower", "ops_per_s and latency_tail_ms on schur-render"),
    ("exactalg.product_divide.factors_in", "count", "lower", "ops_per_s and latency_tail_ms on schur-render"),
    ("exactalg.product_divide.terms_out", "count", "lower", "ops_per_s and latency_tail_ms on schur-render"),
    ("exactalg.mul.calls", "count", "lower", "ops_per_s on decide and basicset"),
    ("exactalg.mul.self_s", "s", "lower", "ops_per_s on decide and basicset"),
    ("exactalg.mul.terms_out", "count", "lower", "ops_per_s on decide and basicset"),
    ("exactalg.specialise.calls", "count", "lower", "ops_per_s and latency_tail_ms on decide; latency_tail_ms on basicset"),
    ("exactalg.specialise.self_s", "s", "lower", "ops_per_s and latency_tail_ms on decide; latency_tail_ms on basicset"),
    ("exactalg.specialise.terms_in", "count", "lower", "ops_per_s and latency_tail_ms on decide; latency_tail_ms on basicset"),
    ("exactalg.specialise.terms_out", "count", "lower", "ops_per_s and latency_tail_ms on decide; latency_tail_ms on basicset"),
    ("exactalg.specialise.yield", "ratio", "higher", "ops_per_s and latency_tail_ms on decide; latency_tail_ms on basicset"),
    ("exactalg.specialise.conductor_max", "count", "lower", "latency_tail_ms on decide"),
    ("exactalg.cyclotomic_polynomial.calls", "count", "lower", "latency_tail_ms on decide"),
    ("exactalg.cyclotomic_polynomial.self_s", "s", "lower", "latency_tail_ms on decide"),
    ("exactalg.render.self_s", "s", "lower", "ops_per_s on schur-render"),
    ("schur.schur_cancellation_free.calls", "count", "lower", "ops_per_s on schur-render"),
    ("schur.schur_cancellation_free.self_s", "s", "lower", "ops_per_s on schur-render"),
    ("schur.schur_mathas.calls", "count", "lower", "ops_per_s on schur-render"),
    ("schur.schur_mathas.self_s", "s", "lower", "ops_per_s on schur-render"),
    ("schur.schur_gim.calls", "count", "lower", "ops_per_s on schur-render"),
    ("schur.schur_gim.self_s", "s", "lower", "ops_per_s on schur-render"),
    ("schur.ariki_poly.calls", "count", "lower", "ops_per_s on decide; latency_p50_ms on basicset"),
    ("schur.ariki_poly.self_s", "s", "lower", "ops_per_s on decide; latency_p50_ms on basicset"),
    ("schur.ariki_poly.terms_out", "count", "lower", "ops_per_s on decide; latency_p50_ms on basicset"),
    ("schur.is_semisimple.calls", "count", "lower", "ops_per_s on decide and basicset"),
    ("schur.is_semisimple.self_s", "s", "lower", "ops_per_s on decide and basicset"),
    ("schur.is_defect_zero.calls", "count", "lower", "ops_per_s on decide"),
    ("schur.is_defect_zero.self_s", "s", "lower", "ops_per_s on decide"),
    ("schur.a_value_via_valuation.self_s", "s", "lower", "ops_per_s on decide"),
    ("basicset.dm_partition.self_s", "s", "lower", "latency_tail_ms on basicset"),
    ("basicset.charge_for.self_s", "s", "lower", "latency_tail_ms on basicset"),
    ("basicset.uglov_levels.self_s", "s", "lower", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.uglov_levels.vertices", "count", "lower", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.uglov_levels.frontier_max", "count", "lower", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.f_tilde.calls", "count", "lower", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.f_tilde.hit_ratio", "ratio", "higher", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.crystal.dedup_ratio", "ratio", "higher", "latency_tail_ms on basicset (G(1,1,n) stratum)"),
    ("basicset.assemble.self_s", "s", "lower", "ops_per_s on basicset"),
    ("basicset.assemble.elements", "count", "lower", "ops_per_s on basicset"),
    ("basicset.gpn.self_s", "s", "lower", "ops_per_s on basicset"),
    ("verify.lemmas.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.formulas.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.avalues.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.semisimple.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.defect0.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.dominance.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.fuzz.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.examples.seconds", "s", "lower", "latency_p50_ms on verify"),
    ("verify.checks_per_s", "1/s", "higher", "latency_p50_ms on verify"),
    ("verify.pools_created", "count", "lower", "latency_p50_ms on verify"),
    ("trace.overhead", "ratio", "lower", "none: traced wall time over untraced wall time of the same ops"),
)

# Metrics that must repeat exactly between two traced runs of the same ops.
DETERMINISTIC_SUFFIXES = (
    ".calls", ".items", ".factors_in", ".terms_in", ".terms_out", ".vertices",
    ".frontier_max", ".elements", ".pools_created", ".stdout_bytes", ".hits",
    ".conductor_max", ".new_vertices",
)


def is_deterministic(name: str) -> bool:
    return name.endswith(DETERMINISTIC_SUFFIXES)


# ---------------------------------------------------------------------------
# Span arithmetic
#
# A span is [name, start, end, parent, op, leaf_s]: `parent` is the index of
# the enclosing span or -1, and `leaf_s` the summed duration of calls made
# inside it to functions timed in aggregate (see Tracer.wrap).


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _, leaf_s) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered - leaf_s)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


# ---------------------------------------------------------------------------
# Recording


class Tracer:
    """Collects spans and counters; `install` patches the program, `restore` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None, prepare=None, aggregate=False):
        """A wrapper of `fn` that records a span named `name`.

        With `aggregate`, for leaves called hundreds of thousands of times per
        op (the crystal's f_tilde), no span is stored: the call's duration is
        added to the enclosing span's `leaf_s` and to a per-name total.
        """
        spans, stack, counters, leaf_s = self.spans, self._stack, self.counters, self.leaf_s

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            if aggregate:
                start = perf_counter()
                result = fn(*args, **kwargs)
                took = perf_counter() - start
                leaf_s[name] += took
                if stack:
                    spans[stack[-1]][5] += took
            else:
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
            counters[name + ".calls"] += 1
            if count is not None:
                count(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, prepare=None, aggregate=False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, prepare, aggregate))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced binding of the program (imported as `ariki`)."""
        cli = importlib.import_module("ariki.cli")
        schur = importlib.import_module("ariki.schur")
        basicset = importlib.import_module("ariki.basicset")
        exactalg = importlib.import_module("ariki.exactalg")
        verify = importlib.import_module("ariki.verify")

        def terms_out(prefix):
            def count(c, args, result):
                c[prefix + ".terms_out"] += len(result.terms)
            return count

        def product_divide_args(args):
            l, *rest = args
            return (l,) + tuple(list(x) for x in rest)

        def product_divide_count(c, args, result):
            c["exactalg.product_divide.factors_in"] += sum(len(x) for x in args[1:])
            c["exactalg.product_divide.terms_out"] += len(result.terms)

        def specialise_count(c, args, result):
            c["exactalg.specialise.terms_in"] += len(args[0].terms)
            c["exactalg.specialise.terms_out"] += len(result.terms)
            c["exactalg.specialise.conductor_max"] = max(c["exactalg.specialise.conductor_max"], args[1].n)

        def enumerate_count(c, args, result):
            c["combinatorics.enumerate_multipartitions.items"] += len(result)

        def uglov_count(c, args, result):
            sizes = [len(level) for level in result]
            c["basicset.uglov_levels.vertices"] += sum(sizes)
            c["basicset.uglov_levels.frontier_max"] = max(c["basicset.uglov_levels.frontier_max"], max(sizes))
            if args[2].e_prime >= 2:
                c["basicset.crystal.new_vertices"] += sum(sizes[1:])

        def f_tilde_count(c, args, result):
            if result is not None:
                c["basicset.f_tilde.hits"] += 1

        def assemble_count(c, args, result):
            c["basicset.assemble.elements"] += len(result.elements)

        def suites_count(c, args, results):
            for res in results:
                c[f"verify.{res.name}.seconds"] += res.seconds
                c["verify.suite_seconds"] += res.seconds
                c["verify.checks"] += res.checks

        counters = self.counters

        class CountingPool(verify.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counters["verify.pools_created"] += 1
                super().__init__(*args, **kwargs)

        self._patches.append((verify, "ProcessPoolExecutor", verify.ProcessPoolExecutor))
        verify.ProcessPoolExecutor = CountingPool

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "run_suites", "verify.run_suites", suites_count)
        self.patch(cli, "assemble_basic_set_gpn", "basicset.gpn")
        for owner in (cli, basicset):
            self.patch(owner, "assemble_basic_set", "basicset.assemble", assemble_count)
            self.patch(owner, "is_semisimple", "schur.is_semisimple")
        for owner in (cli, basicset, schur):
            self.patch(owner, "enumerate_multipartitions", "combinatorics.enumerate_multipartitions", enumerate_count)
        for attr in ("a_value_combinatorial", "a_value_hook_formula"):
            self.patch(cli, attr, "combinatorics.a_value")
        self.patch(cli, "a_value_via_valuation", "schur.a_value_via_valuation")
        self.patch(cli, "is_defect_zero", "schur.is_defect_zero")
        for owner in (cli, schur):
            self.patch(owner, "ariki_poly", "schur.ariki_poly", terms_out("schur.ariki_poly"))
            self.patch(owner, "specialise", "exactalg.specialise", specialise_count)
            self.patch(owner, "schur_cancellation_free", "schur.schur_cancellation_free")
        for attr in ("schur_mathas", "schur_gim"):
            self.patch(cli, attr, f"schur.{attr}")
        self.patch(schur, "product_divide", "exactalg.product_divide", product_divide_count, product_divide_args)
        self.patch(exactalg, "cyclotomic_polynomial", "exactalg.cyclotomic_polynomial")
        self.patch(exactalg.MultiLaurent, "__mul__", "exactalg.mul", terms_out("exactalg.mul"))
        self.patch(exactalg.MultiLaurent, "render", "exactalg.render")
        self.patch(exactalg.CycloLaurent, "render", "exactalg.render")
        self.patch(basicset, "dm_partition", "basicset.dm_partition")
        self.patch(basicset, "charge_for", "basicset.charge_for")
        self.patch(basicset, "uglov_levels", "basicset.uglov_levels", uglov_count)
        self.patch(basicset, "f_tilde", "basicset.f_tilde", f_tilde_count, aggregate=True)

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tleaf_s\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters; run.py fills in cli.import_s and trace.overhead."""
        c = self.counters
        own = self_time_by_name(self.spans)
        for name, took in self.leaf_s.items():
            own[name] = own.get(name, 0.0) + took
        out: dict[str, float] = {}
        for name, _, _, _ in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = own.get(name[: -len(".self_s")], 0.0)
            elif name in c:
                out[name] = c[name]
        out["cli.self_s"] = own.get("cli.main", 0.0)
        calls, hits = c["basicset.f_tilde.calls"], c["basicset.f_tilde.hits"]
        out["basicset.f_tilde.hit_ratio"] = hits / calls if calls else 0.0
        out["basicset.crystal.dedup_ratio"] = c["basicset.crystal.new_vertices"] / hits if hits else 0.0
        t_in = c["exactalg.specialise.terms_in"]
        out["exactalg.specialise.yield"] = c["exactalg.specialise.terms_out"] / t_in if t_in else 0.0
        secs = c["verify.suite_seconds"]
        out["verify.checks_per_s"] = c["verify.checks"] / secs if secs else 0.0
        for name, _, _, _ in LAYER_METRICS:
            out.setdefault(name, 0)
        return out

    def deterministic_counts(self) -> dict[str, int]:
        """Every counter that must repeat exactly when the same ops run again."""
        return {k: v for k, v in sorted(self.counters.items()) if is_deterministic(k)}
