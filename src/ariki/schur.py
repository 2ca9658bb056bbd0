"""Schur elements and their direct applications.

Three independent formulas for the Schur element of a multipartition are
implemented and cross-checked: a cancellation-free product over nodes, the
quotient formula of Mathas, and the beta-number formula of Geck, Iancu and
Malle.  On top of them sit the semisimplicity criterion, the defect-0
test, and the valuation route to the a-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import (
    ChargeData,
    Multipartition,
    Partition,
    conjugate,
    enumerate_multipartitions,  # unused here, but perfbench/tracing.py patches this name
    gen_hook_length,
    l_symbol,
    n_function,
    rebar,
)
from .errors import DomainError
from .exactalg import (
    CycloLaurent,
    MultiLaurent,
    SpecMap,
    product_divide,
    specialise,
)

# ---------------------------------------------------------------------------
# Specialisation parameters


@dataclass(frozen=True)
class CycloSpec:
    """Parameters of a specialisation onto roots of unity.

    eta = exp(2*pi*i*k/e) is a primitive e-th root of unity.  In
    "cyclotomic" mode the charges are the integers r_j and the map factors
    through q -> u^r, Q_j -> zeta_l^j u^(r_j) before u -> eta, so overall
    q -> eta^r, Q_j -> zeta_l^j eta^(r_j).  In "rootofunity" mode the
    charges are the v_j and the map is q -> eta, Q_j -> eta^(v_j).
    """

    e: int
    k: int
    r: int
    charges: tuple[int, ...]
    mode: str = "cyclotomic"

    def __post_init__(self):
        object.__setattr__(self, "charges", tuple(self.charges))
        if self.e < 2:
            raise DomainError("e must be >= 2")
        if math.gcd(self.k, self.e) != 1:
            raise DomainError("gcd(k,e) must be 1")
        if self.r < 1:
            raise DomainError("r must be a positive integer")
        if self.mode not in ("cyclotomic", "rootofunity"):
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def level(self) -> int:
        return len(self.charges)

    def charge_data(self) -> ChargeData:
        if self.mode != "cyclotomic":
            raise DomainError("charge data only makes sense in cyclotomic mode")
        return ChargeData(self.r, self.charges)


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
    if e < 2:
        raise DomainError("e must be >= 2")
    if math.gcd(k, e) != 1:
        raise DomainError("gcd(k,e) must be 1")
    return SpecMap(n=e, q_image=(k % e, 0), Q_images=tuple(((k * vj) % e, 0) for vj in v))


def spec_map_for(spec: CycloSpec, l: int) -> SpecMap:
    """The full evaluation map of a CycloSpec, with every variable sent to Z[zeta_N]."""
    if spec.level != l:
        raise DomainError(f"specialisation has {spec.level} charges, expected {l}")
    if spec.mode == "rootofunity":
        return spec_map_root_of_unity(spec.e, spec.k, spec.charges)
    n = (l * spec.e) // math.gcd(l, spec.e)
    we = n // spec.e
    wl = n // l
    return SpecMap(
        n=n,
        q_image=((we * spec.k * spec.r) % n, 0),
        Q_images=tuple(((wl * j + we * spec.k * rj) % n, 0) for j, rj in enumerate(spec.charges)),
    )


# ---------------------------------------------------------------------------
# Polynomial building blocks


def q_integer(l: int, m: int) -> MultiLaurent:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 1:
        raise DomainError(f"[{m}]_q does not occur; same-component hooks are >= 1")
    return MultiLaurent(l, {(i,) + (0,) * l: 1 for i in range(m)})


def _pair_binomial(l: int, a: int, s: int, b: int, t: int) -> MultiLaurent:
    """q^a Q_s - q^b Q_t (with s != t)."""
    es = [0] * (l + 1)
    es[0], es[1 + s] = a, 1
    et = [0] * (l + 1)
    et[0], et[1 + t] = b, 1
    return MultiLaurent(l, {tuple(es): 1, tuple(et): -1})


def _cross_factor(l: int, h: int, s: int, t: int) -> MultiLaurent:
    """q^h Q_s Q_t^(-1) - 1."""
    e = [0] * (l + 1)
    e[0], e[1 + s], e[1 + t] = h, 1, -1
    return MultiLaurent(l, {tuple(e): 1, (0,) * (l + 1): -1})


def _q_minus_one_power_factor(l: int, c: int) -> MultiLaurent:
    """q^c - 1 (c >= 1)."""
    return MultiLaurent(l, {(c,) + (0,) * l: 1, (0,) * (l + 1): -1})


def _sign_monomial(l: int, sign: int, e_q: int, e_Q: tuple[int, ...] | None = None) -> MultiLaurent:
    return MultiLaurent.term(l, sign, e_q=e_q, e_Q=e_Q or ())


# ---------------------------------------------------------------------------
# The three Schur-element formulas


def schur_cancellation_free(m: Multipartition) -> MultiLaurent:
    """Pure product form: no division is ever performed.

    (-1)^(n(l-1)) q^(-n(merged)) prod over components s and nodes (i,j) of
    [h_ss]_q * prod over t != s of (q^(h_st) Q_s Q_t^(-1) - 1).
    """
    l, n = m.level, m.rank
    sign = -1 if (n * (l - 1)) % 2 else 1
    factors = [_sign_monomial(l, sign, -n_function(rebar(m)))]
    for s, comp in enumerate(m.components):
        for (i, j) in comp.nodes():
            factors.append(q_integer(l, gen_hook_length(comp, comp, i, j)))
            for t, other in enumerate(m.components):
                if t != s:
                    factors.append(_cross_factor(l, gen_hook_length(comp, other, i, j), s, t))
    return product_divide(l, factors)


def _alpha_conjugate(m: Multipartition) -> int:
    total = 0
    for comp in m.components:
        for c in conjugate(comp).parts:
            total += (c - 1) * c
    assert total % 2 == 0
    return total // 2


def _xst_mathas_parts(m: Multipartition, s: int, t: int):
    l = m.level
    lam, mu = m.components[s], m.components[t]
    mu_conj = conjugate(mu)
    num: list[MultiLaurent] = []
    den: list[MultiLaurent] = []
    for (i, j) in mu.nodes():
        num.append(_pair_binomial(l, j - i, t, 0, s))
    mu1 = mu.part(1)
    for (i, j) in lam.nodes():
        num.append(_pair_binomial(l, j - i, s, mu1, t))
        for k in range(1, mu1 + 1):
            num.append(_pair_binomial(l, j - i, s, k - 1 - mu_conj.part(k), t))
            den.append(_pair_binomial(l, j - i, s, k - mu_conj.part(k), t))
    return num, den


def xst_mathas(m: Multipartition, s: int, t: int) -> MultiLaurent:
    """The X_st quotient, numerator product first, one exact division per binomial."""
    num, den = _xst_mathas_parts(m, s, t)
    return product_divide(m.level, num, den)


def xst_closed(m: Multipartition, s: int, t: int) -> MultiLaurent:
    """Closed product form of X_st (no division)."""
    l = m.level
    lam, mu = m.components[s], m.components[t]
    lam_conj, mu_conj = conjugate(lam), conjugate(mu)
    cross = sum(a * b for a, b in zip(lam_conj.parts, mu_conj.parts))
    e_Q = [0] * l
    e_Q[s], e_Q[t] = mu.size, lam.size
    factors = [_sign_monomial(l, 1, -cross, tuple(e_Q))]
    for (i, j) in lam.nodes():
        factors.append(_cross_factor(l, gen_hook_length(lam, mu, i, j), s, t))
    for (i, j) in mu.nodes():
        factors.append(_cross_factor(l, gen_hook_length(mu, lam, i, j), t, s))
    return product_divide(l, factors)


def xst_factor(m: Multipartition, s: int, t: int) -> MultiLaurent:
    """X_st for 0 <= s < t < l, by the closed product form."""
    if not (0 <= s < t <= m.level - 1):
        raise DomainError(f"need 0 <= s < t <= {m.level - 1}, got ({s},{t})")
    return xst_closed(m, s, t)


def schur_mathas(m: Multipartition) -> MultiLaurent:
    """Quotient formula: every X_st realised by exact division."""
    l, n = m.level, m.rank
    sign = -1 if (n * (l - 1)) % 2 else 1
    factors = [_sign_monomial(l, sign, -_alpha_conjugate(m), tuple(-n for _ in range(l)))]
    for s, comp in enumerate(m.components):
        if comp.size:
            factors.append(MultiLaurent.term(l, 1, e_Q=tuple(comp.size if j == s else 0 for j in range(l))))
        for (i, j) in comp.nodes():
            factors.append(q_integer(l, gen_hook_length(comp, comp, i, j)))
    for s in range(l):
        for t in range(s + 1, l):
            factors.append(xst_mathas(m, s, t))
    return product_divide(l, factors)


def schur_gim(m: Multipartition, L: int | None = None) -> MultiLaurent:
    """Beta-number formula; output is independent of the symbol size L.

    The quotient nu/delta is taken with exact divisions, processed pair of
    components at a time (unique factorisation makes every intermediate
    quotient a Laurent polynomial), and the trailing (q-1)^(-n) and
    (Q_0...Q_{l-1})^(-n) are applied as exact divisions at the end.
    """
    l, n = m.level, m.rank
    if L is None:
        L = m.length
    betas = l_symbol(m, L)  # raises if L < length
    a_L = n * (l - 1) + math.comb(l, 2) * math.comb(L, 2)
    b_L_num = l * L * (L - 1) * (2 * l * L - l - 3)
    assert b_L_num % 12 == 0
    b_L = b_L_num // 12

    # Same-component content: nu's diagonal gives Q_s^(sum of betas) times
    # products of (q^k - 1); delta's within-component product gives
    # Q_s^(C(L,2)) q^(weighted beta sum) times products of (q^(b_i-b_j) - 1).
    diag_num: list[MultiLaurent] = []
    diag_den: list[MultiLaurent] = []
    mono_q = 0
    mono_Q = [0] * l
    for s in range(l):
        bs = betas[s]
        mono_Q[s] += sum(bs) - math.comb(L, 2)
        for b in bs:
            for k in range(1, b + 1):
                diag_num.append(_q_minus_one_power_factor(l, k))
        for i in range(L):
            for j in range(i + 1, L):
                mono_q -= bs[j]
                diag_den.append(_q_minus_one_power_factor(l, bs[i] - bs[j]))
    blocks = [product_divide(l, diag_num, diag_den)]
    blocks.append(_sign_monomial(l, 1, mono_q, tuple(mono_Q)))

    # Cross content, one unordered pair of components at a time.
    for s in range(l):
        for t in range(s + 1, l):
            num = [_pair_binomial(l, 0, s, 0, t) for _ in range(L)]
            for b in betas[s]:
                for k in range(1, b + 1):
                    num.append(_pair_binomial(l, k, s, 0, t))
            for b in betas[t]:
                for k in range(1, b + 1):
                    num.append(_pair_binomial(l, k, t, 0, s))
            den = [
                _pair_binomial(l, b_s, s, b_t, t)
                for b_s in betas[s]
                for b_t in betas[t]
            ]
            blocks.append(product_divide(l, num, den))

    sign = -1 if a_L % 2 else 1
    blocks.append(_sign_monomial(l, sign, b_L))
    tail = [_q_minus_one_power_factor(l, 1) for _ in range(n)]
    tail.append(MultiLaurent.term(l, 1, e_Q=(n,) * l))
    return product_divide(l, blocks, tail)


# ---------------------------------------------------------------------------
# Checkable identities behind the formulas


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
    """alpha(conjugates) + cross column products == n(merged parts), exactly."""
    conjs = [conjugate(c) for c in m.components]
    cross = 0
    for s in range(len(conjs)):
        for t in range(s + 1, len(conjs)):
            cross += sum(a * b for a, b in zip(conjs[s].parts, conjs[t].parts))
    return _alpha_conjugate(m) + cross == n_function(rebar(m))


# ---------------------------------------------------------------------------
# Semisimplicity, defect 0, valuation a-value


def ariki_poly(l: int, n: int) -> MultiLaurent:
    """prod [i]_q for i <= n, times prod over s < t, -n < k < n of (q^k Q_s - Q_t)."""
    if l < 1 or n < 1:
        raise DomainError("need l >= 1 and n >= 1")
    acc = MultiLaurent.one(l)
    for i in range(2, n + 1):
        acc = acc * q_integer(l, i)
    for s in range(l):
        for t in range(s + 1, l):
            for k in range(-n + 1, n):
                acc = acc * _pair_binomial(l, k, s, 0, t)
    return acc


def is_semisimple(spec: CycloSpec, l: int, n: int) -> bool:
    """Whether the specialised algebra is split semisimple."""
    return not specialise(ariki_poly(l, n), spec_map_for(spec, l)).is_zero()


def is_defect_zero(m: Multipartition, e: int, v: tuple[int, ...]) -> bool:
    """Whether the module labelled by m stays projective irreducible at eta of order e."""
    if e < 2:
        raise DomainError("e must be >= 2")
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
    """Negative of the u-valuation of the specialised Schur element."""
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    theta = spec_map_cyclotomic(charge)
    value: CycloLaurent = specialise(schur_cancellation_free(m), theta)
    assert not value.is_zero(), "cyclotomic specialisation of a Schur element vanished"
    return -value.valuation()
