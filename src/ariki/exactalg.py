"""Exact arithmetic kernels.

Three rings, all with arbitrary-precision integer data and canonical forms:

* ``MultiLaurent`` -- Laurent polynomials in q, Q_0, ..., Q_{l-1} over Z,
  stored as a map from exponent vectors to nonzero coefficients.
* ``CyclotomicInt`` -- elements of Z[zeta_N] in the power basis modulo the
  N-th cyclotomic polynomial, so zero testing is coordinate-wise.
* ``CycloLaurent`` -- Laurent polynomials in one variable u with
  CyclotomicInt coefficients.

``SpecMap`` describes a ring homomorphism sending q and each Q_j to a root
of unity times a power of u; ``specialise`` applies it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError, InexactDivisionError

# ---------------------------------------------------------------------------
# Multivariate Laurent polynomials over Z


def _monomial_key(exps: tuple[int, ...]) -> tuple:
    # Graded lexicographic, usable on raw (possibly negative) exponents.
    return (sum(exps), exps)


class MultiLaurent:
    """Laurent polynomial in q and Q_0..Q_{l-1} with integer coefficients.

    Exponent vectors are tuples (e_q, e_{Q_0}, ..., e_{Q_{l-1}}).  Zero
    coefficients are never stored, so two values are equal iff their term
    maps are identical.
    """

    __slots__ = ("l", "terms")

    def __init__(self, l: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.l = l
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                if c != 0:
                    if len(exps) != l + 1:
                        raise DomainError(
                            f"exponent vector {exps} has length {len(exps)}, expected {l + 1}"
                        )
                    clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, l: int) -> "MultiLaurent":
        return cls(l, {})

    @classmethod
    def one(cls, l: int) -> "MultiLaurent":
        return cls(l, {(0,) * (l + 1): 1})

    @classmethod
    def term(cls, l: int, coeff: int, e_q: int = 0, e_Q: Iterable[int] = ()) -> "MultiLaurent":
        exps = [0] * (l + 1)
        exps[0] = e_q
        for j, e in enumerate(e_Q):
            exps[1 + j] = e
        return cls(l, {tuple(exps): coeff})

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "MultiLaurent") -> None:
        if self.l != other.l:
            raise DomainError(f"mixed variable counts: {self.l} != {other.l}")

    def __add__(self, other: "MultiLaurent") -> "MultiLaurent":
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = out.get(exps, 0) + c
            if v:
                out[exps] = v
            elif exps in out:
                del out[exps]
        res = MultiLaurent.__new__(MultiLaurent)
        res.l = self.l
        res.terms = out
        return res

    def __neg__(self) -> "MultiLaurent":
        res = MultiLaurent.__new__(MultiLaurent)
        res.l = self.l
        res.terms = {exps: -c for exps, c in self.terms.items()}
        return res

    def __sub__(self, other: "MultiLaurent") -> "MultiLaurent":
        return self + (-other)

    def __mul__(self, other: "MultiLaurent") -> "MultiLaurent":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(exps, 0) + ca * cb
                if v:
                    out[exps] = v
                elif exps in out:
                    del out[exps]
        res = MultiLaurent.__new__(MultiLaurent)
        res.l = self.l
        res.terms = out
        return res

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self.l == other.l and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity-free equality only

    def is_zero(self) -> bool:
        return not self.terms

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiLaurent({self.l}, {self.render()!r})"

    def render(self) -> str:
        """Canonical text form, e.g. ``q^2*Q0 - Q1 + 1``.

        Terms are sorted by graded-lex order on exponent vectors,
        descending.  Exponent 0 factors are omitted, exponent 1 is written
        without ^, and a coefficient of 1 is dropped unless the monomial is
        empty.
        """
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(self.terms, key=_monomial_key, reverse=True):
            c = self.terms[exps]
            factors: list[str] = []
            names = ["q"] + [f"Q{j}" for j in range(self.l)]
            for name, e in zip(names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# Packed monomial encoding used by the reduction core.  A key holds
# (total degree, e_q, e_{Q_0}, ...) in fixed-width nonnegative fields,
# most significant first, so integer comparison of keys is exactly the
# graded-lex order on (e_q, e_{Q_0}, ...), addition of keys is monomial
# multiplication, and a borrow during subtraction flags non-divisibility.
_PACK_BITS = 28
_PACK_GUARD = 1 << (_PACK_BITS - 1)


def _shift_of(terms, width: int) -> tuple[int, ...]:
    its = iter(terms)
    m = list(next(its))
    for exps in its:
        for i in range(width):
            if exps[i] < m[i]:
                m[i] = exps[i]
    return tuple(m)


def _pack_terms(terms, shift: tuple[int, ...], width: int) -> dict[int, int]:
    bits = _PACK_BITS
    out: dict[int, int] = {}
    for exps, c in terms.items():
        key = 0
        total = 0
        for e, s in zip(exps, shift):
            v = e - s
            if not 0 <= v < _PACK_GUARD:
                raise DomainError(f"exponent spread {v} does not fit a packed field of {_PACK_BITS - 1} bits")
            total += v
            key = (key << bits) | v
        out[key | (total << (bits * width))] = c
    return out


def _unpack_terms(packed: dict[int, int], shift: tuple[int, ...], width: int) -> dict[tuple[int, ...], int]:
    bits = _PACK_BITS
    mask = (1 << bits) - 1
    out: dict[tuple[int, ...], int] = {}
    for key, c in packed.items():
        exps = tuple(
            ((key >> (bits * (width - 1 - i))) & mask) + shift[i] for i in range(width)
        )
        out[exps] = c
    return out


def _mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _div_packed(num: dict[int, int], den: dict[int, int], width: int) -> dict[int, int]:
    bits = _PACK_BITS
    guard_mask = 0
    for i in range(width):
        guard_mask |= _PACK_GUARD << (bits * i)
    lt_d = max(den)
    c_d = den[lt_d]
    d_items = list(den.items())
    rem = dict(num)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot: dict[int, int] = {}
    while rem:
        key = None
        while heap:
            cand = -heap[0]
            if cand in rem:
                key = cand
                break
            heapq.heappop(heap)
        assert key is not None, "heap lost track of the remainder support"
        c_r = rem[key]
        diff = key - lt_d
        if diff < 0 or (diff & guard_mask) or c_r % c_d != 0:
            raise InexactDivisionError("inexact division: leading term not divisible")
        c_q = c_r // c_d
        quot[diff] = c_q
        for k_d, cd in d_items:
            tgt = diff + k_d
            v = rem.get(tgt, 0) - c_q * cd
            if v:
                if tgt not in rem:
                    heapq.heappush(heap, -tgt)
                rem[tgt] = v
            elif tgt in rem:
                del rem[tgt]
    return quot


def exact_divide(num: MultiLaurent, den: MultiLaurent) -> MultiLaurent:
    """Return c with c * den == num, or raise InexactDivisionError."""
    num._check(den)
    if den.is_zero():
        raise DomainError("division by zero")
    return product_divide(num.l, (num,), (den,))


def product_divide(
    l: int,
    num_factors: Iterable[MultiLaurent],
    den_factors: Iterable[MultiLaurent] = (),
) -> MultiLaurent:
    """prod(num_factors) divided, exactly and in order, by each den factor.

    Every operand is translated once to packed monomials with nonnegative
    exponents.  Each division is a reduction with respect to the
    graded-lex order; if at any step the leading term of the remainder is
    not divisible by the leading term of the divisor (monomial-wise or as
    integers), the division is inexact and InexactDivisionError is raised.
    """
    width = l + 1
    acc: dict[int, int] = {0: 1}
    shift = [0] * width
    for f in num_factors:
        if f.l != l:
            raise DomainError(f"mixed variable counts: {f.l} != {l}")
        if f.is_zero():
            return MultiLaurent.zero(l)
        sf = _shift_of(f.terms, width)
        acc = _mul_packed(acc, _pack_terms(f.terms, sf, width))
        for i in range(width):
            shift[i] += sf[i]
    for d in den_factors:
        if d.l != l:
            raise DomainError(f"mixed variable counts: {d.l} != {l}")
        if d.is_zero():
            raise DomainError("division by zero")
        if not acc:
            return MultiLaurent.zero(l)
        sd = _shift_of(d.terms, width)
        acc = _div_packed(acc, _pack_terms(d.terms, sd, width), width)
        for i in range(width):
            shift[i] -= sd[i]
    return MultiLaurent(l, _unpack_terms(acc, tuple(shift), width))


# ---------------------------------------------------------------------------
# Cyclotomic integers


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; used only where the division is known exact.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    if any(num[:dn]):
        raise InexactDivisionError("cyclotomic polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise DomainError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> tuple[int, ...]:
    phi = _phi(n)
    mod = cyclotomic_polynomial(n)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = 0
        for j in range(phi):
            coeffs[i - phi + j] -= c * mod[j]
    coeffs = coeffs[:phi]
    coeffs += [0] * (phi - len(coeffs))
    return tuple(coeffs)


class CyclotomicInt:
    """An element of Z[zeta_N] in the power basis 1, zeta, ..., zeta^(phi(N)-1)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[int]):
        self.n = n
        cs = tuple(coeffs)
        if len(cs) != _phi(n):
            raise DomainError(f"expected {_phi(n)} coordinates for conductor {n}, got {len(cs)}")
        self.coeffs = cs

    @classmethod
    def zero(cls, n: int) -> "CyclotomicInt":
        return cls(n, (0,) * _phi(n))

    @classmethod
    def from_int(cls, n: int, value: int) -> "CyclotomicInt":
        return cls(n, (value,) + (0,) * (_phi(n) - 1))

    @classmethod
    def zeta_power(cls, n: int, k: int) -> "CyclotomicInt":
        k %= n
        return cls(n, _reduce_mod_cyclotomic([0] * k + [1], n))

    def _check(self, other: "CyclotomicInt") -> None:
        if self.n != other.n:
            raise DomainError(f"mixed conductors: {self.n} != {other.n}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return self + (-other)

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CyclotomicInt(self.n, _reduce_mod_cyclotomic(prod, self.n))

    def scaled(self, c: int) -> "CyclotomicInt":
        return CyclotomicInt(self.n, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt({self.n}, {self.coeffs})"

    def render(self, var: str = "z") -> str:
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
            mag = abs(c)
            body = mono if (mono and mag == 1) else (f"{mag}*{mono}" if mono else str(mag))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Laurent polynomials in u over Z[zeta_N]


class CycloLaurent:
    """Laurent polynomial in u with cyclotomic-integer coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, CyclotomicInt] | None = None):
        self.n = n
        clean: dict[int, CyclotomicInt] = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "CycloLaurent":
        return cls(n, {})

    def _check(self, other: "CycloLaurent") -> None:
        if self.n != other.n:
            raise DomainError(f"mixed conductors: {self.n} != {other.n}")

    def __add__(self, other: "CycloLaurent") -> "CycloLaurent":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out[e] + c if e in out else c
            if v.is_zero():
                out.pop(e, None)
            else:
                out[e] = v
        return CycloLaurent(self.n, out)

    def __neg__(self) -> "CycloLaurent":
        return CycloLaurent(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "CycloLaurent") -> "CycloLaurent":
        return self + (-other)

    def __mul__(self, other: "CycloLaurent") -> "CycloLaurent":
        self._check(other)
        out: dict[int, CyclotomicInt] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                v = out[e] + ca * cb if e in out else ca * cb
                if v.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = v
        return CycloLaurent(self.n, out)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        if not self.terms:
            raise DomainError("valuation of the zero polynomial")
        return min(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloLaurent):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"CycloLaurent({self.n}, {self.render()!r})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e].render()
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*u")
            else:
                parts.append(f"({c})*u^{e}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Specialisation maps


@lru_cache(maxsize=None)
def _zeta_table(n: int) -> tuple[CyclotomicInt, ...]:
    return tuple(CyclotomicInt.zeta_power(n, k) for k in range(n))


@dataclass(frozen=True)
class SpecMap:
    """Images of q and the Q_j under a specialisation into Z[zeta_N][u^(+-1)].

    Each image is a pair (a, b) meaning zeta_N^a * u^b.
    """

    n: int
    q_image: tuple[int, int]
    Q_images: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("conductor must be >= 1")


def specialise(f: MultiLaurent, theta: SpecMap) -> CycloLaurent:
    """Apply the ring homomorphism described by theta to f."""
    if f.l != len(theta.Q_images):
        raise DomainError(f"map has {len(theta.Q_images)} Q-images, polynomial has {f.l}")
    n = theta.n
    zeta_table = _zeta_table(n)
    out: dict[int, CyclotomicInt] = {}
    aq, bq = theta.q_image
    for exps, c in f.terms.items():
        a = exps[0] * aq
        b = exps[0] * bq
        for e, (aj, bj) in zip(exps[1:], theta.Q_images):
            a += e * aj
            b += e * bj
        v = zeta_table[a % n].scaled(c)
        v = out[b] + v if b in out else v
        if v.is_zero():
            out.pop(b, None)
        else:
            out[b] = v
    return CycloLaurent(n, out)
