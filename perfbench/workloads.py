"""Seeded, stratified input generators for the four benchmark workloads.

A workload is a sequence of rounds.  Round ``i`` of workload ``w`` under
seed ``s`` is a list of ops drawn from ``random.Random`` seeded with the
string ``"w:s:i"``, so the same seed always gives the same ops and rounds
can be generated lazily.  Every round holds a fixed number of ops per
stratum (a stratum is one cell of the size grid), and parameters that set
an op's cost by themselves (the prime e, the quantum characteristic) rotate
with the round index rather than being drawn, so the cost of a round is
comparable across seeds.

A run of S seconds makes a fixed number of passes (run.PASSES) over a
fixed number of rounds, ROUNDS_PER_15_S scaled to S.  The counts were set
so that a 15 s run measured 12 to 25 s of op time on a 2-core x86-64
virtual machine; keeping them fixed means every commit runs the same ops
for the same seed, whatever its speed.

This module deliberately imports nothing from ``ariki``: the program under
test receives only the generated argv, and generating inputs must not warm
any of its caches.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import lru_cache

WORKLOADS = ("schur-render", "decide", "basicset", "verify")

# The seed whose round-0 stdout digest is pinned in pinned.json.
DEFAULT_SEED = 0
# Seed reserved for confirming later performance claims; do not tune on it.
HELD_OUT_SEED = 7919

# Rounds in each pass of a 15 s run.
ROUNDS_PER_15_S = {"schur-render": 1, "decide": 1, "basicset": 1, "verify": 1}

COMPOSITE_E = (2, 3, 4, 6, 8, 12)
PRIME_E = (101, 211, 499)

# schur-render: full expansion and rendering of all three formulas.  The
# cost of the beta-number formula is set by the symbol size L, so L is part
# of the stratum: each cell fixes (l, n, L) and draws the multipartition
# among those whose length len satisfies len <= L <= len + 3.
SCHUR_CELLS = ((2, 6), (3, 5), (3, 6), (4, 4))
SCHUR_SIZES = (2, 3, 4, 5, 6)
SCHUR_TAIL_CELL = (4, 5)
SCHUR_TAIL_SIZES = (5, 6, 7)  # one per round, rotating

# decide: semisimple l <= 3, n <= 5, and l = 4 only with n <= 2.  The
# three heavy cells take most of a round's time with one prime-e op and one
# composite-e op each, more composite-e ops for (3, 4).  Every other semisimple
# cell costs a few ms per op but varies with the drawn parameters, so it
# gets SEMISIMPLE_COPIES draws of each kind per round: that averages the
# draws out at little cost, and with three copies each such cell meets
# every prime e in every round.  avalue and defect0 ops cost a few ms and
# get OTHER_COPIES draws per cell.
# Composite-e ops at (3, 4) cost 100-125 ms whatever the draw.  Twelve of
# them per round, with the op count that the copies give, put the p95
# latency inside their plateau, below the handful of heavier ops, instead
# of on the slope of ops whose cost depends on the drawn charges.
SEMISIMPLE_CELLS = tuple((l, n) for l in (1, 2, 3) for n in range(1, 6)) + ((4, 1), (4, 2))
HEAVY_CELLS = ((3, 4), (3, 5), (4, 2))
COMPOSITE_OPS_PER_CELL = {(3, 4): 12}
SEMISIMPLE_COPIES = 3
OTHER_COPIES = 4
AVALUE_CELLS = tuple((l, n) for l in (1, 2, 3) for n in range(1, 6))
DEFECT0_ALL_CELLS = tuple((l, n) for l in (1, 2, 3) for n in range(1, 5))
DEFECT0_LAMBDA_CELLS = AVALUE_CELLS
DEFECT0_E = (2, 3, 4, 5, 6)

# basicset: level 1 is crystal-bound, level 3 is is_semisimple-bound.  At
# level 1 an op's cost is set by n and e, which rotates; above it the drawn
# charges matter too, so those cells, and the G(l,p,n) cells, appear more
# than once per round.  That also gives a round the 40 ops above which the
# tail percentile is p75 rather than the median.
BASICSET_CELLS = (
    tuple((1, n) for n in range(18, 29))
    + tuple((2, n) for n in range(8, 15)) * 2
    + ((3, 4), (3, 5)) * 3
)
GPN_CELLS = ((3, 3, 4), (3, 3, 5), (2, 2, 8), (2, 2, 9), (2, 2, 10)) * 2

# verify: every scope here finishes well under a second with --jobs 2 at
# the commit that introduced the benchmark, and there are 40 of them, so
# that the tail percentile is p75.  Larger scopes of the same suites
# (formulas at max-l 3, max-n 4 takes 15 s; at max-l 2, max-n 4 1.6 s) are
# left out.
VERIFY_JOBS = 2
VERIFY_SCOPES = (
    tuple(("lemmas", None, n) for n in (3, 4, 5, 6, 7))
    + tuple(("formulas", l, n) for l, n in ((1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))
    + tuple(("avalues", l, n) for l, n in ((1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)))
    + tuple(("defect0", l, n) for l, n in ((1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)))
    + tuple(("dominance", l, n) for l, n in ((1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
    + (("semisimple", None, None), ("fuzz", None, None), ("examples", None, None))
)


# ---------------------------------------------------------------------------
# Combinatorics needed to draw inputs (independent of the program)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, in a fixed order."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def multipartitions(l: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All l-tuples of partitions with total size n, in a fixed order."""
    if l == 1:
        return tuple((p,) for p in partitions(n))
    return tuple(
        (p,) + rest
        for k in range(n + 1)
        for p in partitions(k)
        for rest in multipartitions(l - 1, n - k)
    )


def mp_json(m) -> str:
    return json.dumps([list(c) for c in m], separators=(",", ":"))


def _rotate(values, i: int):
    return values[i % len(values)]


def _coprime_k(rng: random.Random, e: int) -> int:
    return rng.choice([k for k in range(1, e) if math.gcd(k, e) == 1])


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def structurally_semisimple(e: int, k: int, r: int, charges, n: int) -> bool:
    """The semisimplicity criterion read off its factors, without expansion.

    The q-part vanishes exactly when e' = e/gcd(e, r) lies in [2, n]; the
    Q-part exactly when eta^(r d) = zeta_l^(i-j) eta^(r_i - r_j) for some
    pair i < j and some -n < d < n, written as a congruence mod l*e.
    """
    l = len(charges)
    e_prime = e // math.gcd(e, r)
    if 2 <= e_prime <= n:
        return False
    for i, j in itertools.combinations(range(l), 2):
        base = (i - j) * e + k * l * (charges[i] - charges[j])
        if any((base - k * l * r * d) % (l * e) == 0 for d in range(-n + 1, n)):
            return False
    return True


def _op(kind: str, stratum: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "stratum": stratum, "argv": argv, "params": params}


# ---------------------------------------------------------------------------
# Round generators


@lru_cache(maxsize=None)
def _schur_candidates(l: int, n: int, size: int):
    return tuple(m for m in multipartitions(l, n) if size - 3 <= max(len(c) for c in m) <= size)


def _schur_round(rng: random.Random, index: int) -> list[dict]:
    cells = [(l, n, size) for (l, n) in SCHUR_CELLS for size in SCHUR_SIZES]
    cells.append(SCHUR_TAIL_CELL + (_rotate(SCHUR_TAIL_SIZES, index),))
    rng.shuffle(cells)
    ops = []
    for pair, (l, n, size) in enumerate(cells):
        lam = mp_json(rng.choice(_schur_candidates(l, n, size)))
        argv = ["schur", "--lambda", lam, "--formula", "all", "--symbol-size", str(size)]
        stratum = f"l{l}n{n}L{size}"
        ops.append(_op("schur-text", stratum, argv, pair=pair))
        ops.append(_op("schur-json", stratum, argv + ["--json"], pair=pair))
    return ops


def _decide_round(rng: random.Random, index: int) -> list[dict]:
    ops = []
    for cell, (l, n) in enumerate(SEMISIMPLE_CELLS):
        # e rotates with the round and the copy, so over six rounds every
        # cell meets every composite e.
        copies = 1 if (l, n) in HEAVY_CELLS else SEMISIMPLE_COPIES
        composite = [
            _rotate(COMPOSITE_E, index * copies + cell + i)
            for i in range(COMPOSITE_OPS_PER_CELL.get((l, n), copies))
        ]
        prime = [_rotate(PRIME_E, index * copies + cell + i) for i in range(copies)]
        for e in composite + prime:
            k, r = _coprime_k(rng, e), rng.randint(1, 3)
            charges = tuple(rng.randint(-4, 4) for _ in range(l))
            argv = [
                "semisimple", f"--l={l}", f"--n={n}", f"--e={e}", f"--k={k}", f"--r={r}",
                f"--charges={_csv(charges)}", "--json",
            ]
            stratum = f"semisimple-{'prime' if e in PRIME_E else 'composite'}-l{l}n{n}"
            ops.append(_op("semisimple", stratum, argv, l=l, n=n, e=e, k=k, r=r, charges=charges))
    for l, n in AVALUE_CELLS:
        for _ in range(OTHER_COPIES):
            lam = rng.choice(multipartitions(l, n))
            r = rng.randint(1, 6)
            charges = tuple(rng.randint(-6, 6) for _ in range(l))
            argv = ["avalue", "--lambda", mp_json(lam), f"--r={r}", f"--charges={_csv(charges)}", "--method", "all"]
            ops.append(_op("avalue", f"avalue-l{l}n{n}", argv))
    for l, n in DEFECT0_ALL_CELLS:
        for _ in range(OTHER_COPIES):
            e = rng.choice(DEFECT0_E)
            v = tuple(rng.randint(-5, 5) for _ in range(l))
            argv = ["defect0", f"--l={l}", f"--n={n}", f"--e={e}", f"--v={_csv(v)}", "--all"]
            ops.append(_op("defect0-all", f"defect0-all-l{l}n{n}", argv, l=l, n=n, e=e, v=v))
    for l, n in DEFECT0_LAMBDA_CELLS:
        for _ in range(OTHER_COPIES):
            lam = rng.choice(multipartitions(l, n))
            e = rng.choice(DEFECT0_E)
            v = tuple(rng.randint(-5, 5) for _ in range(l))
            argv = ["defect0", "--lambda", mp_json(lam), f"--e={e}", f"--v={_csv(v)}"]
            ops.append(_op("defect0-lambda", f"defect0-lambda-l{l}n{n}", argv, lam=mp_json(lam), e=e, v=v))
    rng.shuffle(ops)
    return ops


def _basic_set_params(rng: random.Random, e: int, l: int, n: int, p: int = 1):
    """Draw (k, r, charges) for a basic set of G(l,p,n), charges being the
    l/p-block, until the ambient parameters (r*p, charges tiled p times) are
    not semisimple and eta^(r*p) != 1.  With eta^(r*p) = 1 no crystal
    applies and the program refuses the input by design (exit 1).

    At level 1 the basic set and its cost depend only on e' = e/gcd(e, r),
    so r = 1 there and e' is the rotated e."""
    for _ in range(1000):
        k, r = _coprime_k(rng, e), (1 if l == 1 else rng.randint(1, 3))
        charges = tuple(rng.randint(-4, 4) for _ in range(l // p))
        if (r * p) % e and not structurally_semisimple(e, k, r * p, charges * p, n):
            return k, r, charges
    raise ValueError(f"no non-semisimple parameters with e={e} for G({l},{p},{n})")


def _basicset_round(rng: random.Random, index: int) -> list[dict]:
    ops = []
    for cell, (l, n) in enumerate(BASICSET_CELLS):
        e = _rotate(COMPOSITE_E, index + cell)
        k, r, charges = _basic_set_params(rng, e, l, n)
        argv = [
            "basicset", f"--l={l}", f"--n={n}", f"--e={e}", f"--k={k}", f"--r={r}",
            f"--charges={_csv(charges)}", "--json",
        ]
        ops.append(_op("basicset", f"basicset-l{l}n{n}", argv, l=l, n=n, e=e, k=k, r=r, charges=charges))
    for cell, (l, p, n) in enumerate(GPN_CELLS):
        # e must not divide every r*p, or eta^(r*p) = 1 for all r.
        e = _rotate([e for e in COMPOSITE_E if any((r * p) % e for r in (1, 2, 3))], index + cell)
        k, r, block = _basic_set_params(rng, e, l, n, p)
        argv = [
            "basicset-gpn", f"--l={l}", f"--p={p}", f"--n={n}", f"--e={e}", f"--k={k}",
            f"--r={r}", f"--charges={_csv(block)}",
        ]
        ops.append(_op("gpn", f"gpn-l{l}p{p}n{n}", argv, l=l, p=p, n=n, e=e, k=k, r=r, charges=block))
    rng.shuffle(ops)
    return ops


def _verify_round(rng: random.Random, index: int) -> list[dict]:
    scopes = list(VERIFY_SCOPES)
    rng.shuffle(scopes)
    ops = []
    for suite, max_l, max_n in scopes:
        argv = ["verify", "--suite", suite]
        if max_l is not None:
            argv.append(f"--max-l={max_l}")
        if max_n is not None:
            argv.append(f"--max-n={max_n}")
        argv.append(f"--jobs={VERIFY_JOBS}")
        stratum = "-".join(str(x) for x in (suite, max_l, max_n) if x is not None)
        ops.append(_op("verify", stratum, argv, suite=suite, jobs=VERIFY_JOBS))
    return ops


_ROUNDS = {
    "schur-render": _schur_round,
    "decide": _decide_round,
    "basicset": _basicset_round,
    "verify": _verify_round,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Number of rounds a run of `seconds` measures."""
    return max(1, round(ROUNDS_PER_15_S[workload] * seconds / 15))


def round_ops(workload: str, seed: int, index: int) -> list[dict]:
    """The ops of round `index` of `workload` under `seed`."""
    if workload not in _ROUNDS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _ROUNDS[workload](rng, index)
