"""Schur elements and their direct applications.

Three independent formulas for the Schur element of a multipartition are
implemented and cross-checked: a cancellation-free product over nodes, the
quotient formula of Mathas, and the beta-number formula of Geck, Iancu and
Malle.  Each builds its element as a multiset of irreducible factors
(``_Factors``), divides by subtracting multiplicities and expands once.
``render_formulas`` compares the named formulas' canonical factorisations
first and renders each distinct one once, straight from the product
kernel's grid, without expanding it into a polynomial; formulas that agree
share one text.  On top of the formulas sit the semisimplicity criterion,
the defect-0 test, and the valuation route to the a-value.

The criterion is a product of simple factors, and its specialisation lies
in Z[zeta_N], which has no zero divisors: ``is_semisimple`` tests each
factor's image in integer arithmetic and ``theta_p`` multiplies the images
in Z[x]/(x^N - 1) (``cyclic_product``: one packed int while N is small, a
sparse dict past that).  ``ariki_poly`` multiplies the criterion out, as a
factor multiset expanded once like the Schur elements; it is an oracle for
``verify`` and the tests only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .combinatorics import (
    ChargeData,
    Multipartition,
    conjugate,
    enumerate_multipartitions,  # unused here, but perfbench/tracing.py patches this name
    gen_hook_length,
    l_symbol,
    n_function,
    rebar,
)
from .errors import DomainError, InternalError
from .exactalg import (
    CycloLaurent,
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
    cyclic_product,
    cyclotomic_polynomial,
    product_divide,
    render_product,
    specialise,  # unused here, but perfbench/tracing.py patches this name
    u_valuation,
)

# ---------------------------------------------------------------------------
# Specialisation parameters


def _check_root_of_unity(e: int, k: int) -> None:
    """eta = zeta_e^k must be a primitive e-th root of unity, with e >= 2."""
    if e < 2:
        raise DomainError("e must be >= 2")
    if math.gcd(k, e) != 1:
        raise DomainError("gcd(k,e) must be 1")


@dataclass(frozen=True)
class CycloSpec:
    """Parameters of a specialisation onto roots of unity.

    eta = exp(2*pi*i*k/e) is a primitive e-th root of unity.  The charges
    are the integers r_j and the map factors through q -> u^r,
    Q_j -> zeta_l^j u^(r_j) before u -> eta, so overall q -> eta^r,
    Q_j -> zeta_l^j eta^(r_j).
    """

    e: int
    k: int
    r: int
    charges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "charges", tuple(self.charges))
        _check_root_of_unity(self.e, self.k)
        if self.r < 1:
            raise DomainError("r must be a positive integer")

    @property
    def level(self) -> int:
        return len(self.charges)


def spec_map_cyclotomic(charge: ChargeData) -> SpecMap:
    """q -> u^r, Q_j -> zeta_l^j u^(r_j), over Z[zeta_l]."""
    l = charge.level
    return SpecMap(
        n=l,
        q_image=(0, charge.r),
        Q_images=tuple((j, rj) for j, rj in enumerate(charge.charges)),
    )


def spec_map_root_of_unity(e: int, k: int, v: tuple[int, ...]) -> SpecMap:
    """q -> eta, Q_j -> eta^(v_j) with eta = zeta_e^k."""
    _check_root_of_unity(e, k)
    return SpecMap(n=e, q_image=(k % e, 0), Q_images=tuple(((k * vj) % e, 0) for vj in v))


def zeta_exponents(spec: CycloSpec, l: int) -> tuple[int, int, list[int]]:
    """(N, a, A) with q -> zeta_N^a and Q_j -> zeta_N^(A_j), N = lcm(l, e).

    Every test of which images coincide reads these exponents mod N: the
    criterion here, and the splitting classes and charges in ``basicset``.
    """
    if spec.level != l:
        raise DomainError(f"specialisation has {spec.level} charges, expected {l}")
    n = math.lcm(l, spec.e)
    we = n // spec.e
    wl = n // l
    return n, (we * spec.k * spec.r) % n, [(wl * j + we * spec.k * rj) % n for j, rj in enumerate(spec.charges)]


def spec_map_for(spec: CycloSpec, l: int) -> SpecMap:
    """The full evaluation map of a CycloSpec, with every variable sent to Z[zeta_N]."""
    N, a, A = zeta_exponents(spec, l)
    return SpecMap(n=N, q_image=(a, 0), Q_images=tuple((A_j, 0) for A_j in A))


# ---------------------------------------------------------------------------
# Polynomial building blocks


class _Factors:
    """A product sign * q^e_q * prod Q_j^(e_Q[j]) * prod key^multiplicity.

    The keys are irreducible in Z[q^+-1, Q^+-1]: ("phi", d) stands for
    Phi_d(q), and ("x", h, s, t) with s < t for q^h Q_s Q_t^(-1) - 1.  The
    ring is a unique factorisation domain, so a quotient of such products
    is found by subtracting multiplicities, and only ``expand`` multiplies.
    Each method multiplies in its factor to the power k; k < 0 divides.
    """

    def __init__(self, l: int):
        self.l = l
        self.sign = 1
        self.e_q = 0
        self.e_Q = [0] * l
        self.keys: Counter = Counter()

    def __eq__(self, other) -> bool:
        # Counter equality ignores zero multiplicities but compares negative
        # ones, so a quotient that ``expand`` would refuse equals no valid one.
        if not isinstance(other, _Factors):
            return NotImplemented
        return (self.l, self.sign, self.e_q, self.e_Q, self.keys) == (
            other.l, other.sign, other.e_q, other.e_Q, other.keys
        )

    def monomial(self, sign: int, e_q: int = 0, e_Q: tuple[int, ...] = ()) -> None:
        self.sign *= sign
        self.e_q += e_q
        for j, e in enumerate(e_Q):
            self.e_Q[j] += e

    def q_power_minus_one(self, h: int, k: int = 1) -> None:
        """(q^h - 1)^k = prod over d | h of Phi_d^k."""
        if h < 1:
            raise DomainError(f"q^{h} - 1 is not a product of cyclotomic polynomials")
        for d in range(1, math.isqrt(h) + 1):
            if h % d == 0:
                self.keys["phi", d] += k
                if d * d != h:
                    self.keys["phi", h // d] += k

    def q_integer(self, h: int, k: int = 1) -> None:
        """[h]_q^k = ((q^h - 1) / (q - 1))^k."""
        if h < 1:
            raise DomainError(f"[{h}]_q does not occur; same-component hooks are >= 1")
        self.q_power_minus_one(h, k)
        self.keys["phi", 1] -= k

    def cross(self, h: int, s: int, t: int, k: int = 1) -> None:
        """(q^h Q_s Q_t^(-1) - 1)^k; for s > t that is (-q^h Q_s Q_t^(-1))^k X(t, s, -h)^k."""
        if s > t:
            self.sign *= -1 if k % 2 else 1
            self.e_q += h * k
            self.e_Q[s] += k
            self.e_Q[t] -= k
            h, s, t = -h, t, s
        self.keys["x", h, s, t] += k

    def pair(self, a: int, s: int, b: int, t: int, k: int = 1) -> None:
        """(q^a Q_s - q^b Q_t)^k = (q^b Q_t)^k (q^(a-b) Q_s Q_t^(-1) - 1)^k."""
        self.e_q += b * k
        self.e_Q[t] += k
        self.cross(a - b, s, t, k)

    def _operands(self) -> list[MultiLaurent]:
        l = self.l
        factors = [MultiLaurent.term(l, self.sign, self.e_q, self.e_Q)]
        # The Phi_d first, then the X keys grouped by their pair (s, t), so
        # products stay small until the pairs meet.  Every formula expands
        # the same multiset in the same order.
        for key, k in sorted(self.keys.items(), key=lambda kv: (kv[0][2:], abs(kv[0][1]), kv[0][1])):
            if k < 0:
                raise InternalError(f"factor {key} divided out {-k} more times than it occurs")
            if not k:
                continue
            if key[0] == "phi":
                phi = cyclotomic_polynomial(key[1])
                poly = MultiLaurent(l, {(i,) + (0,) * l: c for i, c in enumerate(phi)})
            else:
                e = [0] * (l + 1)
                e[0], e[1 + key[2]], e[1 + key[3]] = key[1], 1, -1
                poly = MultiLaurent(l, {tuple(e): 1, (0,) * (l + 1): -1})
            factors += [poly] * k
        return factors

    def expand(self) -> MultiLaurent:
        return product_divide(self.l, self._operands())

    def render(self) -> str:
        """``expand().render()``, formatted from the product kernel's grid with no term map."""
        return render_product(self.l, self._operands())


# ---------------------------------------------------------------------------
# The three Schur-element formulas


def _cancellation_free_factors(m: Multipartition) -> _Factors:
    """Pure product form: no division is ever performed.

    (-1)^(n(l-1)) q^(-n(merged)) prod over components s and nodes (i,j) of
    [h_ss]_q * prod over t != s of (q^(h_st) Q_s Q_t^(-1) - 1).
    """
    l, n = m.level, m.rank
    f = _Factors(l)
    f.monomial(-1 if (n * (l - 1)) % 2 else 1, -n_function(rebar(m)))
    for s, comp in enumerate(m.components):
        for (i, j) in comp.nodes():
            f.q_integer(gen_hook_length(comp, comp, i, j))
            for t, other in enumerate(m.components):
                if t != s:
                    f.cross(gen_hook_length(comp, other, i, j), s, t)
    return f


def schur_cancellation_free(m: Multipartition) -> MultiLaurent:
    """The Schur element by the cancellation-free product over nodes."""
    return _cancellation_free_factors(m).expand()


def _xst_mathas(f: _Factors, m: Multipartition, s: int, t: int) -> None:
    """Multiply f by the X_st quotient: its num binomials, and its den binomials with k = -1."""
    lam, mu = m.components[s], m.components[t]
    mu_conj = conjugate(mu)
    for (i, j) in mu.nodes():
        f.pair(j - i, t, 0, s)
    mu1 = mu.part(1)
    for (i, j) in lam.nodes():
        f.pair(j - i, s, mu1, t)
        for k in range(1, mu1 + 1):
            f.pair(j - i, s, k - 1 - mu_conj.part(k), t)
            f.pair(j - i, s, k - mu_conj.part(k), t, -1)


def _mathas_factors(m: Multipartition) -> _Factors:
    """Quotient formula: every X_st quotient goes into one factor multiset.

    The den binomials of each X_st divide out by multiplicity.  The q-power
    is -alpha, alpha = sum over components of n(lambda^(s)) (``n_function``).
    """
    l, n = m.level, m.rank
    f = _Factors(l)
    e_Q = tuple(comp.size - n for comp in m.components)
    alpha = sum(n_function(comp) for comp in m.components)
    f.monomial(-1 if (n * (l - 1)) % 2 else 1, -alpha, e_Q)
    for comp in m.components:
        for (i, j) in comp.nodes():
            f.q_integer(gen_hook_length(comp, comp, i, j))
    for s in range(l):
        for t in range(s + 1, l):
            _xst_mathas(f, m, s, t)
    return f


def schur_mathas(m: Multipartition) -> MultiLaurent:
    """The Schur element by Mathas's quotient formula."""
    return _mathas_factors(m).expand()


def _gim_factors(m: Multipartition, L: int | None = None) -> _Factors:
    """Beta-number formula; the multiset is independent of the symbol size L.

    Every factor of nu/delta, the sign and monomials, and the trailing
    (q-1)^(-n) and (Q_0...Q_{l-1})^(-n) go into one factor multiset, where
    delta's factors and the tail divide out by multiplicity.  Equal factors
    are counted before they are added, so building is quadratic in L.
    """
    l, n = m.level, m.rank
    if L is None:
        L = m.length
    betas = l_symbol(m, L)  # raises if L < length
    a_L = n * (l - 1) + math.comb(l, 2) * math.comb(L, 2)
    # b_L = l L (L-1) (2lL - l - 3) / 12 is an integer for every l and L.
    f = _Factors(l)
    f.monomial(-1 if a_L % 2 else 1, l * L * (L - 1) * (2 * l * L - l - 3) // 12, (-n,) * l)
    # at_least[s][k - 1] betas of component s are >= k: the multiplicity of
    # k in the products over b of k = 1..b below.
    at_least = [[sum(b >= k for b in bs) for k in range(1, max(bs, default=0) + 1)] for bs in betas]

    # Same-component content: nu's diagonal gives Q_s^(sum of betas) times
    # products of (q^k - 1); delta's within-component product gives
    # Q_s^(C(L,2)) q^(weighted beta sum) times products of (q^(b_i-b_j) - 1).
    for s in range(l):
        bs = betas[s]
        f.e_q -= sum(j * b for j, b in enumerate(bs))
        f.e_Q[s] += sum(bs) - math.comb(L, 2)
        for k, c in enumerate(at_least[s], 1):
            f.q_power_minus_one(k, c)
        for h, c in Counter(bs[i] - bs[j] for i in range(L) for j in range(i + 1, L)).items():
            f.q_power_minus_one(h, -c)

    # Cross content of each unordered pair of components.  delta's factor
    # q^a Q_s - q^b Q_t is q^b (q^(a-b) Q_s - Q_t): its q^b goes into the
    # monomial, and the rest is counted by a - b.
    for s in range(l):
        for t in range(s + 1, l):
            f.pair(0, s, 0, t, L)
            for u, v in ((s, t), (t, s)):
                for k, c in enumerate(at_least[u], 1):
                    f.pair(k, u, 0, v, c)
            f.e_q -= L * sum(betas[t])
            for h, c in Counter(b_s - b_t for b_s in betas[s] for b_t in betas[t]).items():
                f.pair(h, s, 0, t, -c)

    f.q_power_minus_one(1, -n)
    return f


def schur_gim(m: Multipartition, L: int | None = None) -> MultiLaurent:
    """The Schur element by the beta-number formula; independent of the symbol size L."""
    return _gim_factors(m, L).expand()


def render_formulas(m: Multipartition, L: int | None, names) -> dict[str, str]:
    """{name: rendered Schur element} for the named formulas among "cancel", "mathas", "gim".

    Every named multiset is built first, in the order named.  The keys are
    irreducible and pairwise non-associate in a unique factorisation
    domain, so equal multisets are equal elements: each distinct multiset is
    rendered once, and formulas with equal multisets share its text.
    """
    builders = {"cancel": _cancellation_free_factors, "mathas": _mathas_factors, "gim": lambda m: _gim_factors(m, L)}
    built = {name: builders[name](m) for name in names}
    values: dict[str, str] = {}
    for name, f in built.items():
        shared = next((values[other] for other in values if built[other] == f), None)
        values[name] = f.render() if shared is None else shared
    return values


# ---------------------------------------------------------------------------
# Semisimplicity, defect 0, valuation a-value


def _criterion_factors(l: int, n: int) -> tuple[range, list[tuple[int, int, int]]]:
    """The factors of Ariki's criterion: each i is [i]_q, 2 <= i <= n, and
    each (k, s, t) is q^k Q_s - Q_t, s < t and -n < k < n.  At n = 0 there
    are none: the empty product is 1."""
    if l < 1 or n < 0:
        raise DomainError("need l >= 1 and n >= 0")
    return range(2, n + 1), [(k, s, t) for s in range(l) for t in range(s + 1, l) for k in range(-n + 1, n)]


def ariki_poly(l: int, n: int) -> MultiLaurent:
    """prod [i]_q for i <= n, times prod over s < t, -n < k < n of (q^k Q_s - Q_t).

    The criterion multiplied out, built as a factor multiset and expanded
    once: an oracle for ``verify`` and the tests.  ``is_semisimple`` and
    ``theta_p`` read the same factors one by one and never expand them.
    """
    q_integers, pairs = _criterion_factors(l, n)
    f = _Factors(l)
    for i in q_integers:
        f.q_integer(i)
    for k, s, t in pairs:
        f.pair(k, s, 0, t)
    return f.expand()


# theta_p's memory grows with the conductor N = lcm(l, e): a dense row of N
# coefficients and Phi_N.  At N = 999,993 (l = 3, e = 333331, n = 5) it took
# 0.35 to 0.51 s and 88.5 MB of peak RSS in one process (CPython 3.11,
# x86-64): 6 ms for the sparse product, the rest building Phi_N and reducing
# modulo it.  Below the cap, an N with many small primes still makes the
# reduction modulo Phi_N slow: 8 s at N = 60060 = 2^2 * 3 * 5 * 7 * 11 * 13.
MAX_CONDUCTOR = 10**6


def is_semisimple(spec: CycloSpec, l: int, n: int) -> bool:
    """Whether the specialised algebra is split semisimple.

    Z[zeta_N] has no zero divisors, so the specialised criterion vanishes
    iff one of its factors does: [i]_q iff a != 0 and a*i = 0 mod N, and
    q^k Q_s - Q_t iff k*a + A_s = A_t mod N.
    """
    N, a, A = zeta_exponents(spec, l)
    q_integers, pairs = _criterion_factors(l, n)
    if a and any(a * i % N == 0 for i in q_integers):
        return False
    return all((k * a + A[s] - A[t]) % N for k, s, t in pairs)


def theta_p(spec: CycloSpec, l: int, n: int) -> CycloLaurent:
    """The specialised criterion, specialise(ariki_poly(l, n), spec_map_for(spec, l)).

    Zero unless ``is_semisimple``.  A conductor N above ``MAX_CONDUCTOR``
    then raises ``DomainError``.  Otherwise ``cyclic_product`` multiplies
    the factors' images in Z[x]/(x^N - 1), packed into one int or sparse as
    N and the coefficient bound decide, and the product is reduced modulo
    Phi_N once.
    """
    N, a, A = zeta_exponents(spec, l)
    if not is_semisimple(spec, l, n):
        return CycloLaurent(N)
    if N > MAX_CONDUCTOR:
        raise DomainError(
            f"conductor N = lcm(l, e) = {N} for l = {l}, e = {spec.e} is above the cap of {MAX_CONDUCTOR}"
        )
    q_integers, pairs = _criterion_factors(l, n)
    # [i]_q maps to the run 1 + x^a + ... + x^(a(i-1)), and q^k Q_s - Q_t to
    # x^(ka + A_s) - x^(A_t), whose exponents differ: no pair vanishes.
    runs = [(a, i) for i in q_integers]
    row = cyclic_product(N, runs, [((k * a + A[s]) % N, A[t]) for k, s, t in pairs])
    return CycloLaurent(N, {0: CyclotomicInt.from_powers(N, row)})


def is_defect_zero(m: Multipartition, e: int, v: tuple[int, ...]) -> bool:
    """Whether the module labelled by m stays projective irreducible at eta of order e."""
    _check_root_of_unity(e, 1)
    v = tuple(v)
    if len(v) != m.level:
        raise DomainError(f"{len(v)} charges for level {m.level}")
    for s, comp in enumerate(m.components):
        for (i, j) in comp.nodes():
            for t in range(m.level):
                if (gen_hook_length(comp, m.components[t], i, j) + v[s] - v[t]) % e == 0:
                    return False
    return True


def a_value_via_valuation(m: Multipartition, charge: ChargeData) -> int:
    """Negative of the u-valuation of the specialised Schur element.

    The full cancellation-free element is expanded and every term mapped, so
    this route shares nothing with the hook formula.
    """
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    return a_value_of_element(schur_cancellation_free(m), charge)


def a_value_of_element(element: MultiLaurent, charge: ChargeData) -> int:
    """``a_value_via_valuation`` of an already expanded Schur element.

    Only the lowest u-row that survives reduction modulo Phi_N is read
    (``u_valuation``).  A zero image raises ``InternalError``.
    """
    valuation = u_valuation(element, spec_map_cyclotomic(charge))
    if valuation is None:
        raise InternalError("cyclotomic specialisation of a Schur element vanished")
    return -valuation
