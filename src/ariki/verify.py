"""Exhaustive and randomized verification suites.

Each suite re-checks one family of identities with an independent oracle:
cross-multiplied canonical forms for the rational lemma, brute-force
partial sums for dominance, the all-Schur-elements scan against the
product criterion, and so on.  The ``lemmas`` suite's identities live here,
as no production path calls them.  Each suite is a generator of (checks,
failure) pairs, and ``_suite`` names, times and tallies it into a
``SuiteResult``.  All randomness is seeded, so output is identical across
runs and across worker counts.

Suites map a module-level worker over their items through a ``_Workers``
holder.  ``run_suites`` gives all its suites one holder, which starts at
most one process pool, and only for a map whose estimated serial work (a
cost per unit of work times the units in its items) passes
``_POOL_BREAK_EVEN_US``; smaller maps run in this process.  ``--jobs`` and
the CPUs the process may run on cap the pool's workers.  A suite called
directly maps serially.  The costs per unit of the ``avalues``, rotation and
``defect0`` maps are measured: each map's in-process time at its suite's
default scope, best of 9 on a 2-core machine, over its units.

The expanded oracles pay for each expansion once: an ``avalues`` job is one
multipartition with all its charges, and a ``defect0`` job one multipartition
with all its cases, so each Schur element is expanded once per suite.  The
valuation reads only the lowest u-row that survives (``u_valuation``).
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .basicset import assemble_basic_set, assemble_basic_set_gpn, charge_for, dm_partition, uglov_multipartitions
from .combinatorics import (
    ChargeData,
    Dominance,
    Multipartition,
    Partition,
    a_value_combinatorial,
    a_value_hook_formula,
    conjugate,
    dominates,
    enumerate_multipartitions,
    min_symbol_size,
    multipartition_to_json,
    multiset_dominates,
    n_function,
    partition_layers,
    rebar,
    scaled_kappa,
    sigma_action,
)
from .errors import DomainError
from .exactalg import (
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
    cyclotomic_polynomial,
    product_divide,
    specialise,
)
from .schur import (
    CycloSpec,
    a_value_of_element,
    a_value_via_valuation,
    ariki_poly,
    is_defect_zero,
    is_semisimple,
    schur_cancellation_free,
    schur_gim,
    schur_mathas,
    spec_map_for,
    spec_map_root_of_unity,
    theta_p,
)

_SEED = 20260810


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    seconds: float
    failure: str | None = None

    def line(self) -> str:
        # No timings here: verify output must be byte-identical across runs.
        status = "PASS" if self.passed else "FAIL"
        msg = f"{self.name}: {status} ({self.checks} checks)"
        if self.failure:
            msg += f" first counterexample: {self.failure}"
        return msg


# Estimated serial work, in microseconds, above which a map goes to the
# process pool.  A pool at best halves a map's time on 2 CPUs and takes
# 25-130 ms to start on a shared 2-core machine, so smaller maps run faster
# in this process.
_POOL_BREAK_EVEN_US = 150_000


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _weight(item) -> int:
    """Units of work in one map item: the length of a list-valued last field, else 1."""
    return len(item[-1]) if isinstance(item, tuple) and isinstance(item[-1], list) else 1


class _Workers:
    """Maps suite workers over items, in item order, here or in one lazily started pool.

    A map is pooled when `us_per_unit` times its items' total weight exceeds
    _POOL_BREAK_EVEN_US: the items alone decide, so the choice repeats on
    every run.
    """

    def __init__(self, jobs: int = 1):
        self.workers = min(jobs, _usable_cpus())
        self._pool = None

    def map(self, fn, items, us_per_unit: int) -> list:
        items = list(items)
        if self.workers < 2 or len(items) < 2 or us_per_unit * sum(map(_weight, items)) <= _POOL_BREAK_EVEN_US:
            return [fn(x) for x in items]
        if self._pool is None:
            # Looked up here, not bound at import: perfbench/tracing.py patches
            # verify.ProcessPoolExecutor to count the pools started.
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(fn, items, chunksize=max(1, len(items) // (4 * self.workers))))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


_SERIAL = _Workers()


def _suite(name: str):
    """Run a generator of (checks, failure or None) pairs as the suite `name`.

    The result sums the checks, keeps the first failure and times the run.
    """

    def decorate(checks_of):
        @functools.wraps(checks_of)
        def run(*args, **kwargs) -> SuiteResult:
            t0 = time.perf_counter()
            checks, failure = 0, None
            for c, f in checks_of(*args, **kwargs):
                checks += c
                failure = failure or f
            return SuiteResult(name, failure is None, checks, time.perf_counter() - t0, failure)

        return run

    return decorate


# ---------------------------------------------------------------------------
# lemmas


def conj_content_identity(p: Partition, k: int) -> bool:
    """Two-variable rational identity relating rim contents of p and its conjugate.

    Verified after clearing denominators, by comparing canonical forms.
    """
    if not (1 <= k <= p.part(1)):
        raise DomainError(f"need 1 <= k <= {p.part(1)}, got {k}")
    pc = conjugate(p)
    l = 1  # variables: q and y := Q_0

    def factor(a: int) -> MultiLaurent:
        # q^a y - 1
        return MultiLaurent(l, {(a, 1): 1, (0, 0): -1})

    lhs_num = MultiLaurent.one(l)
    lhs_den = MultiLaurent.one(l)
    for i in range(1, pc.part(k) + 1):
        lhs_num = lhs_num * factor(p.part(i) - i + 1)
        lhs_den = lhs_den * factor(p.part(i) - i)
    rhs_num = MultiLaurent.one(l)
    rhs_den = MultiLaurent.one(l)
    for j in range(k, p.part(1) + 1):
        rhs_num = rhs_num * factor(-pc.part(j) + j - 1)
        rhs_den = rhs_den * factor(-pc.part(j) + j)
    left = lhs_num * factor(-pc.part(k) + k - 1) * rhs_den
    right = rhs_num * factor(p.part(1)) * lhs_den
    return left == right


def alpha_identity(m: Multipartition) -> bool:
    """alpha(conjugates) + cross column products == n(merged parts), exactly.

    alpha = sum of C(lambda'_j, 2) over all columns, not the row sums of n(lambda^(s)).
    """
    conjs = [conjugate(c).parts for c in m.components]
    alpha = sum(math.comb(c, 2) for conj in conjs for c in conj)
    cross = sum(a * b for s, x in enumerate(conjs) for y in conjs[s + 1 :] for a, b in zip(x, y))
    return alpha + cross == n_function(rebar(m))


def _lemma_rational_worker(p: Partition) -> tuple[int, str | None]:
    checks = 0
    for k in range(1, p.part(1) + 1):
        checks += 1
        if not conj_content_identity(p, k):
            return checks, f"rim-content identity fails for {p.parts}, k={k}"
    return checks, None


def _lemma_alpha_worker(lam: Multipartition) -> tuple[int, str | None]:
    if alpha_identity(lam):
        return 1, None
    return 1, f"alpha identity fails for {multipartition_to_json(lam)}"


@_suite("lemmas")
def verify_lemmas(max_n: int = 6, workers: _Workers = _SERIAL):
    parts = [Partition(x) for layer in partition_layers(max_n)[1:] for x in layer]
    yield from workers.map(_lemma_rational_worker, parts, us_per_unit=600)
    yield from workers.map(_lemma_alpha_worker, enumerate_multipartitions(3, max_n), us_per_unit=30)


# ---------------------------------------------------------------------------
# formulas


def _formulas_worker(lam: Multipartition) -> tuple[int, str | None]:
    label = multipartition_to_json(lam)
    reference = schur_cancellation_free(lam)
    checks = 1
    if schur_mathas(lam) != reference:
        return checks, f"quotient formula disagrees on {label}"
    for L in (lam.length, lam.length + 1, lam.length + 3):
        checks += 1
        if schur_gim(lam, L) != reference:
            return checks, f"beta-number formula disagrees on {label} at L={L}"
    return checks, None


@_suite("formulas")
def verify_formulas(max_l: int = 3, max_n: int = 4, workers: _Workers = _SERIAL):
    lams: list[Multipartition] = []
    for l in range(1, max_l + 1):
        for n in range(0, max_n + 1):
            lams.extend(enumerate_multipartitions(l, n))
    for n in range(0, max_n):
        lams.extend(enumerate_multipartitions(max_l + 1, n))
    yield from workers.map(_formulas_worker, lams, us_per_unit=1000)


# ---------------------------------------------------------------------------
# avalues


def _random_charge(rng: random.Random, l: int) -> ChargeData:
    return ChargeData(rng.randint(1, 6), tuple(rng.randint(-6, 6) for _ in range(l)))


def _avalue_worker(job) -> tuple[int, str | None]:
    lam, charges = job
    element = schur_cancellation_free(lam)
    checks = 0
    for charge in charges:
        checks += 1
        combinatorial = a_value_combinatorial(lam, charge)
        hooks = a_value_hook_formula(lam, charge)
        valuation = a_value_of_element(element, charge)
        if not (combinatorial == hooks == valuation):
            return checks, (
                f"a-value routes disagree on {multipartition_to_json(lam)} with "
                f"r={charge.r}, charges={charge.charges}: "
                f"{combinatorial}, {hooks}, {valuation}"
            )
    return checks, None


def _sigma_worker(job) -> tuple[int, str | None]:
    charge, p, d, lams = job
    # The rotation permutes the multipartitions of each level and rank, so
    # one a-value per multipartition of the job serves both sides.
    a = {lam: a_value_combinatorial(lam, charge) for lam in lams}
    checks = 0
    for lam in lams:
        checks += 1
        if a[lam] != a.get(sigma_action(lam, p, d)):
            return checks, (
                f"a-value not rotation-invariant for {multipartition_to_json(lam)}, "
                f"p={p}, charges={charge.charges}"
            )
    return checks, None


@_suite("avalues")
def verify_avalues(max_l: int = 3, max_n: int = 4, workers: _Workers = _SERIAL):
    rng = random.Random(_SEED)
    jobs_list = []
    for l in range(1, max_l + 1):
        charges = [_random_charge(rng, l) for _ in range(10)]
        # One job per multipartition, so that each Schur element is expanded once.
        jobs_list += [(lam, charges) for n in range(0, max_n + 1) for lam in enumerate_multipartitions(l, n)]
    yield from workers.map(_avalue_worker, jobs_list, us_per_unit=105)

    sigma_jobs = []
    for l in range(1, max_l + 2):
        lams = [lam for n in range(0, max_n + 1) for lam in enumerate_multipartitions(l, n)]
        for p in range(1, l + 1):
            if l % p:
                continue
            d = l // p
            for _ in range(5):
                block = tuple(rng.randint(-6, 6) for _ in range(d))
                charge = ChargeData(rng.randint(1, 6), block * p)
                sigma_jobs.append((charge, p, d, lams))
    yield from workers.map(_sigma_worker, sigma_jobs, us_per_unit=13)


# ---------------------------------------------------------------------------
# semisimple


def _semisimple_worker(job) -> tuple[int, str | None]:
    spec, l, n = job
    theta = spec_map_for(spec, l)
    expanded = specialise(ariki_poly(l, n), theta)
    by_criterion = not expanded.is_zero()
    by_schur = all(
        not specialise(schur_cancellation_free(lam), theta).is_zero()
        for lam in enumerate_multipartitions(l, n)
    )
    # Third, structural route: the q-part of the criterion vanishes exactly
    # when 2 <= ord(eta^r) <= n, and the Q-part exactly when two parameter
    # indices collide, i.e. some splitting class is not a singleton.
    e_prime = spec.e // math.gcd(spec.e, spec.r)
    q_part_ok = e_prime == 1 or e_prime > n
    all_singletons = all(len(c) == 1 for c in dm_partition(spec, l, n).classes)
    structural = q_part_ok and all_singletons
    # Production reads the criterion per factor; it must agree with all three.
    by_factors = is_semisimple(spec, l, n)
    product = theta_p(spec, l, n)
    where = f"l={l}, n={n}, e={spec.e}, k={spec.k}, r={spec.r}, charges={spec.charges}"
    if not (by_criterion == by_schur == structural == by_factors):
        return 1, (
            f"criterion {by_criterion}, Schur scan {by_schur}, structural {structural}, "
            f"per factor {by_factors} for {where}"
        )
    if (product.render(), product.n) != (expanded.render(), expanded.n):
        return 1, f"thetaP per factor {product.render()} != expanded {expanded.render()} for {where}"
    return 1, None


@_suite("semisimple")
def verify_semisimple(workers: _Workers = _SERIAL):
    rng = random.Random(_SEED + 1)
    grid = []
    for l in (1, 2, 3):
        for n in (1, 2, 3):
            for e in (2, 3, 4, 5, 6, 8, 12):
                k = rng.choice([k for k in range(1, e) if math.gcd(k, e) == 1])
                r = rng.randint(1, 3)
                charges = tuple(rng.randint(-4, 4) for _ in range(l))
                grid.append((CycloSpec(e, k, r, charges), l, n))
    yield from workers.map(_semisimple_worker, grid, us_per_unit=1400)


# ---------------------------------------------------------------------------
# defect0


def _defect0_worker(job) -> tuple[int, str | None]:
    lam, cases = job
    element = schur_cancellation_free(lam)
    checks = 0
    for e, v in cases:
        checks += 1
        by_divisibility = is_defect_zero(lam, e, v)
        by_zero_test = not specialise(element, spec_map_root_of_unity(e, 1, v)).is_zero()
        if by_divisibility != by_zero_test:
            return checks, (
                f"defect-0 routes disagree on {multipartition_to_json(lam)} "
                f"with e={e}, v={v}"
            )
    return checks, None


@_suite("defect0")
def verify_defect0(max_l: int = 3, max_n: int = 4, workers: _Workers = _SERIAL):
    rng = random.Random(_SEED + 2)
    jobs_list = []
    for l in range(1, max_l + 1):
        cases = []
        for e in (2, 3, 4, 6):
            for _ in range(5):
                cases.append((e, tuple(rng.randint(-5, 5) for _ in range(l))))
        for n in range(0, max_n + 1):
            for lam in enumerate_multipartitions(l, n):
                jobs_list.append((lam, cases))
    yield from workers.map(_defect0_worker, jobs_list, us_per_unit=52)


# ---------------------------------------------------------------------------
# dominance


def _dominance_worker(job) -> tuple[int, str | None]:
    charge, lams = job
    size = max(min_symbol_size(lam, charge) for lam in lams)
    kappas = [scaled_kappa(lam, charge, size) for lam in lams]
    avals = [a_value_combinatorial(lam, charge) for lam in lams]
    checks = 0
    for i, ki in enumerate(kappas):
        for j, kj in enumerate(kappas):
            if i == j:
                continue
            checks += 1
            if dominates(ki, kj) is Dominance.STRICT and not (avals[j] > avals[i]):
                return checks, (
                    f"kappa dominance without a-value drop: "
                    f"{multipartition_to_json(lams[i])} vs {multipartition_to_json(lams[j])}, "
                    f"charges={charge.charges}, r={charge.r}"
                )
    return checks, None


_CONCAT_DENOM = 6


def _concat_instance(rng: random.Random):
    # Pairs mu^i >= nu^i in the dominance order, built by mass transfers
    # toward larger entries and then filtered so the hypothesis of the
    # concatenation lemma really holds (checked with raw partial sums).
    # Entries are ints standing for x / _CONCAT_DENOM.
    h = rng.randint(1, 3)
    mus, nus = [], []
    for _ in range(h):
        width = rng.randint(1, 5)
        unit = _CONCAT_DENOM // rng.choice([1, 2, 3, 6])
        nu = sorted((rng.randint(1, 12) * unit for _ in range(width)), reverse=True)
        mu = list(nu)
        for _ in range(rng.randint(0, 4)):
            if width < 2:
                break
            i, j = sorted(rng.sample(range(width), 2))
            shift = rng.randint(0, 3) * unit
            mu[i] += shift
            mu[j] -= shift
        mu.sort(reverse=True)
        if any(x <= 0 for x in mu) or not _brute_dominates(mu, nu):
            mu = list(nu)
        mus.append(mu)
        nus.append(nu)
    return mus, nus


def _concat_label(chunks) -> list[list[Fraction]]:
    return [[Fraction(x, _CONCAT_DENOM) for x in chunk] for chunk in chunks]


def _brute_dominates(xs, ys) -> bool:
    xs = sorted(xs, reverse=True)
    ys = sorted(ys, reverse=True)
    return all(sum(xs[: t + 1]) >= sum(ys[: t + 1]) for t in range(len(xs)))


@_suite("dominance")
def verify_dominance(max_l: int = 3, max_n: int = 4, workers: _Workers = _SERIAL):
    rng = random.Random(_SEED + 3)
    jobs_list = []
    for l in range(1, max_l + 1):
        for n in range(1, max_n + 1):
            lams = list(enumerate_multipartitions(l, n))
            for _ in range(3):
                jobs_list.append((_random_charge(rng, l), lams))
    yield from workers.map(_dominance_worker, jobs_list, us_per_unit=100)

    for _ in range(1000):
        mus, nus = _concat_instance(rng)
        flat_mu = [x for chunk in mus for x in chunk]
        flat_nu = [x for chunk in nus for x in chunk]
        if not multiset_dominates(flat_mu, flat_nu) or not _brute_dominates(flat_mu, flat_nu):
            yield 1, f"concatenation dominance fails for {_concat_label(mus)} vs {_concat_label(nus)}"
        elif sorted(flat_mu) == sorted(flat_nu) and any(sorted(a) != sorted(b) for a, b in zip(mus, nus)):
            yield 1, f"concatenations equal with unequal components: {_concat_label(mus)} vs {_concat_label(nus)}"
        else:
            yield 1, None


# ---------------------------------------------------------------------------
# fuzz


def _random_laurent(rng: random.Random, l: int) -> MultiLaurent:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(-3, 3) for _ in range(l + 1))
        terms[exps] = rng.randint(-5, 5)
    return MultiLaurent(l, terms)


_FUZZ_ROUNDS = 500


@_suite("fuzz")
def verify_fuzz():
    rng = random.Random(_SEED + 4)
    for n in range(1, 25):
        # the Phi_d as polynomials in q alone, multiplied by the tuple-keyed MultiLaurent.__mul__
        prod = MultiLaurent.one(0)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * MultiLaurent(0, {(i,): c for i, c in enumerate(cyclotomic_polynomial(d))})
        expect = MultiLaurent(0, {(n,): 1, (0,): -1})
        yield 1, None if prod == expect else f"cyclotomic product does not rebuild x^{n}-1"
        # zeta^n == 1 by repeated multiplication, not by exponent reduction
        z = CyclotomicInt.zeta_power(n, 1)
        acc = CyclotomicInt.from_int(n, 1)
        for _ in range(n):
            acc = acc * z
        yield 1, None if acc == CyclotomicInt.from_int(n, 1) else f"zeta_{n}^{n} != 1"

    for _ in range(200):
        n = rng.randint(1, 24)
        x = CyclotomicInt(n, tuple(rng.randint(-9, 9) for _ in range(len(cyclotomic_polynomial(n)) - 1)))
        yield 1, None if (x - x).is_zero() else "x - x is not zero"
        inverse_ok = x.is_zero() or (x + (-x)).coeffs == CyclotomicInt.zero(n).coeffs
        yield 1, None if inverse_ok else "additive inverse broken"

    for _ in range(200):
        n = rng.randint(2, 24)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(len(cyclotomic_polynomial(n)) - 1))
        if all(c == 0 for c in coeffs):
            coeffs = (1,) + coeffs[1:]
        yield 1, None if not CyclotomicInt(n, coeffs).is_zero() else "nonzero canonical vector reported zero"

    for _ in range(_FUZZ_ROUNDS):
        l = rng.randint(1, 3)
        f = _random_laurent(rng, l)
        g = _random_laurent(rng, l)
        # canonical form under shuffled, split insertion
        items = [(e, c) for e, c in f.terms.items()]
        split: list[tuple[tuple[int, ...], int]] = []
        for e, c in items:
            half = rng.randint(-3, 3)
            split.append((e, half))
            split.append((e, c - half))
        rng.shuffle(split)
        rebuilt = MultiLaurent.zero(l)
        for e, c in split:
            rebuilt = rebuilt + MultiLaurent(l, {e: c})
        yield 1, None if rebuilt == f else f"canonical form broke under shuffled insertion: {f.render()}"
        yield 1, None if (f - g).is_zero() == (f == g) else "difference zero-test disagrees with equality"

    for _ in range(_FUZZ_ROUNDS):
        l = rng.randint(1, 3)
        f = _random_laurent(rng, l)
        g = _random_laurent(rng, l)
        theta = SpecMap(
            n=rng.randint(1, 12),
            q_image=(rng.randint(0, 11), rng.randint(-2, 2)),
            Q_images=tuple((rng.randint(0, 11), rng.randint(-2, 2)) for _ in range(l)),
        )
        multiplicative = specialise(f * g, theta) == specialise(f, theta) * specialise(g, theta)
        yield 1, None if multiplicative else "specialisation is not multiplicative"
        additive = specialise(f + g, theta) == specialise(f, theta) + specialise(g, theta)
        yield 1, None if additive else "specialisation is not additive"

    done = 0
    while done < _FUZZ_ROUNDS:
        l = rng.randint(1, 3)
        a = _random_laurent(rng, l)
        b = _random_laurent(rng, l)
        if a.is_zero() or b.is_zero():
            continue
        done += 1
        # the product kernel (per Q-monomial, one Kronecker-packed q-polynomial)
        # against the tuple-keyed MultiLaurent.__mul__
        same = product_divide(l, (a, b)) == a * b
        yield 1, None if same else f"packed product differs for ({a.render()}) * ({b.render()})"


# ---------------------------------------------------------------------------
# worked examples


def _as_json_set(elements) -> set[str]:
    return {multipartition_to_json(x) for x in elements}


@_suite("example-basic-set")
def verify_example_basic_set():
    """G(3,1,2) with e=12, k=1, r=6, charges (3,-1,-2)."""
    spec = CycloSpec(e=12, k=1, r=6, charges=(3, -1, -2))
    yield 1, None if not is_semisimple(spec, 3, 2) else "G(3,1,2) parameters should not be semisimple"
    dm = dm_partition(spec, 3, 2)
    yield 1, None if dm.classes == ((0, 1), (2,)) else f"classes {dm.classes}"
    ch0, ch1 = charge_for(dm, 0, spec), charge_for(dm, 1, spec)
    yield 1, None if ch0.s == (0, 0) and ch0.e_prime == 2 else f"first class charge {ch0}"
    yield 1, None if ch1.s == (0,) and ch1.e_prime == 2 else f"second class charge {ch1}"
    yield 1, None if ch0.eq4_exact and ch1.eq4_exact else "charge relation should hold exactly here"
    layers = (
        (2, 2, ch0, {"[[2],[]]", "[[1],[1]]"}, "rank-2 level-2 crystal layer"),
        (2, 1, ch0, {"[[1],[]]"}, "rank-1 level-2 crystal layer"),
        (1, 1, ch1, {"[[1]]"}, "rank-1 level-1 layer"),
        (1, 2, ch1, {"[[2]]"}, "rank-2 level-1 layer"),
    )
    for level, rank, ch, expected, msg in layers:
        yield 1, None if _as_json_set(uglov_multipartitions(level, rank, ch)) == expected else msg
    bs = assemble_basic_set(spec, 3, 2)
    elements = _as_json_set(bs.elements)
    expected = {"[[2],[],[]]", "[[1],[1],[]]", "[[1],[],[1]]", "[[],[],[2]]"}
    yield 1, None if elements == expected else f"basic set {elements}"
    yield 1, None if len(bs.elements) == 4 else "basic set size"
    # Computable part of the triangularity witness: distinct kappas and
    # three-route a-value agreement on the basic set.
    charge = spec.charge_data()
    size = max(min_symbol_size(lam, charge) for lam in bs.elements)
    kappas = [scaled_kappa(lam, charge, size) for lam in bs.elements]
    yield 1, None if len(set(kappas)) == len(kappas) else "kappa sequences should be pairwise distinct"
    for lam in bs.elements:
        a = a_value_combinatorial(lam, charge)
        agree = a == a_value_hook_formula(lam, charge) == a_value_via_valuation(lam, charge)
        yield 1, None if agree else f"a-value routes disagree on {multipartition_to_json(lam)}"


@_suite("example-orbits")
def verify_example_orbits():
    """G(3,3,2) with p=3, e=12, k=1, r=2, block charge (0,)."""
    spec2 = CycloSpec(e=12, k=1, r=2, charges=(0,))
    ambient = CycloSpec(e=12, k=1, r=6, charges=(0, 0, 0))
    bs2 = assemble_basic_set(ambient, 3, 2)
    elements = _as_json_set(bs2.elements)
    expected = {"[[1],[1],[]]", "[[],[1],[1]]", "[[1],[],[1]]", "[[2],[],[]]", "[[],[2],[]]", "[[],[],[2]]"}
    yield 1, None if elements == expected else f"ambient basic set {elements}"
    yield 1, None if len(bs2.elements) == 6 else "ambient basic set size"
    orbits = assemble_basic_set_gpn(spec2, 3, 3, 2).orbits
    yield 1, None if len(orbits) == 2 else f"orbit count {len(orbits)}"
    reps = {multipartition_to_json(o.representative) for o in orbits}
    yield 1, None if reps == {"[[1],[1],[]]", "[[2],[],[]]"} else f"orbit representatives {reps}"
    stable = all(o.orbit_size == 3 and o.stabilizer_size == 1 for o in orbits)
    yield 1, None if stable else "orbit sizes and stabilizers"


@_suite("examples")
def verify_examples():
    # __wrapped__ is each example's undecorated generator of checks.
    yield from verify_example_basic_set.__wrapped__()
    yield from verify_example_orbits.__wrapped__()


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "lemmas": verify_lemmas,
    "formulas": verify_formulas,
    "avalues": verify_avalues,
    "semisimple": verify_semisimple,
    "defect0": verify_defect0,
    "dominance": verify_dominance,
    "fuzz": verify_fuzz,
    "examples": verify_examples,
}


def run_suites(
    names, max_l: int | None = None, max_n: int | None = None, jobs: int = 1
) -> list[SuiteResult]:
    """Run the named suites in order; each gets the scopes its signature names.

    The suites share one `_Workers`, so a run starts at most one process pool,
    and leaves none running when it returns or raises.
    """
    if "all" in names:
        names = list(SUITES)
    workers = _Workers(jobs)
    given = {"max_l": max_l, "max_n": max_n, "workers": workers}
    out = []
    try:
        for name in names:
            params = inspect.signature(SUITES[name]).parameters
            out.append(SUITES[name](**{k: v for k, v in given.items() if k in params and v is not None}))
    finally:
        workers.close()
    return out
