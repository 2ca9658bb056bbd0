"""Exact arithmetic kernels.

Three rings, all with arbitrary-precision integer data and canonical forms:

* ``MultiLaurent`` -- Laurent polynomials in q, Q_0, ..., Q_{l-1} over Z,
  stored as a map from exponent vectors to nonzero coefficients.
* ``CyclotomicInt`` -- elements of Z[zeta_N] in the power basis modulo the
  N-th cyclotomic polynomial, so zero testing is coordinate-wise.
* ``CycloLaurent`` -- Laurent polynomials in one variable u with
  CyclotomicInt coefficients.

``product_divide`` expands a product of MultiLaurent factors on packed
integer monomials whose field width is sized per call.  It only
multiplies: the Schur formulas cancel their quotients factor by factor
before they expand.

``SpecMap`` describes a ring homomorphism sending q and each Q_j to a root
of unity times a power of u; ``specialise`` applies it.

Specialisation works in linear time.  Each term of the input adds its
coefficient to one slot of a dense row: one row per u-degree, a vector in
Z[x]/(x^N - 1).  Each row is then reduced once, by
``_reduce_mod_cyclotomic``, which folds by x^N - 1, then reduces by
S_p(x) = 1 + x^(N/p) + ... + x^((p-1)N/p) for the smallest prime p | N (a
multiple of Phi_N with p nonzero coefficients), and last by the nonzero
coefficients of Phi_N itself.  Phi_N is monic, so every reduction order
gives the same power-basis vector.  ``cyclotomic_polynomial`` builds Phi_N
from the Moebius product over squarefree k | N of (x^(N/k) - 1)^mu(k),
one linear multiplication or exact division per binomial.
"""

from __future__ import annotations

import operator
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
        exps = (e_q, *e_Q)
        if len(exps) > l + 1:
            raise DomainError(f"exponent vector {exps} has length {len(exps)}, expected {l + 1}")
        return cls(l, {exps + (0,) * (l + 1 - len(exps)): coeff})

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
        add = operator.add
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(map(add, ea, eb))
                v = get(exps, 0) + ca * cb
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
        names = ["q"] + [f"Q{j}" for j in range(self.l)]
        for exps in sorted(self.terms, key=_monomial_key, reverse=True):
            c = self.terms[exps]
            factors: list[str] = []
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


def product_divide(l: int, factors: Iterable[MultiLaurent]) -> MultiLaurent:
    """The expanded product of the factors, multiplied in the order given.

    It only multiplies: the Schur formulas cancel every quotient in their
    factor multisets before they expand.  The name and the positional
    ``(l, factors)`` call stay because the benchmark's tracer patches
    ``schur.product_divide`` and keys its ``exactalg.product_divide.*``
    metrics on it.

    Every factor is translated once to packed monomials: its exponents,
    shifted so that the least exponent of each variable is 0, in fields of
    ``bits`` bits, e_q most significant, so adding keys multiplies
    monomials.  A zero factor gives zero.
    """
    width = l + 1
    operands = []
    shift = [0] * width
    spread = 0
    for f in factors:
        if f.l != l:
            raise DomainError(f"mixed variable counts: {f.l} != {l}")
        if f.is_zero():
            return MultiLaurent.zero(l)
        cols = tuple(zip(*f.terms))
        lo = tuple(map(min, cols))
        spread += sum(map(max, cols)) - sum(lo)
        shift = list(map(operator.add, shift, lo))
        operands.append((f.terms, lo))
    # Every shifted exponent of the product lies in [0, spread], spread being
    # the sum of the factors' exponent spreads, so spread.bit_length() bits
    # hold it and no sum of keys carries from one field into the next.
    bits = spread.bit_length()
    acc: dict[int, int] = {0: 1}
    for terms, lo in operands:
        packed: dict[int, int] = {}
        for exps, c in terms.items():
            key = 0
            for e, s in zip(exps, lo):
                key = (key << bits) | (e - s)
            packed[key] = c
        acc = _mul_packed(acc, packed)
    mask = (1 << bits) - 1
    offsets = [bits * (width - 1 - i) for i in range(width)]
    out = {tuple(((key >> o) & mask) + s for o, s in zip(offsets, shift)): c for key, c in acc.items()}
    return MultiLaurent(l, out)


# ---------------------------------------------------------------------------
# Cyclotomic integers


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _times_binomial(poly: list[int], m: int) -> list[int]:
    # poly * (x^m - 1)
    out = [-c for c in poly] + [0] * m
    for i, c in enumerate(poly):
        out[i + m] += c
    return out


def _over_binomial(poly: list[int], m: int) -> list[int]:
    # poly / (x^m - 1), which must be exact: quot[i] = quot[i - m] - poly[i].
    d = len(poly) - 1 - m
    quot = [0] * (d + 1)
    for i in range(d + 1):
        quot[i] = (quot[i - m] if i >= m else 0) - poly[i]
    if poly[d + 1:] != [quot[i - m] if i >= m else 0 for i in range(d + 1, len(poly))]:
        raise InexactDivisionError("cyclotomic polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Phi_n is the product over squarefree k | n of (x^(n/k) - 1)^mu(k): the
    binomials with mu(k) = 1 are multiplied in first, then those with
    mu(k) = -1 are divided out exactly, each in time linear in the degree.
    """
    if n < 1:
        raise DomainError("conductor must be >= 1")
    squarefree = [(1, 1)]  # (k, mu(k))
    for p in _prime_factors(n):
        squarefree += [(k * p, -mu) for k, mu in squarefree]
    poly = [1]
    for k, mu in squarefree:
        if mu == 1:
            poly = _times_binomial(poly, n // k)
    for k, mu in squarefree:
        if mu == -1:
            poly = _over_binomial(poly, n // k)
    return tuple(poly)


@lru_cache(maxsize=None)
def _modulus(n: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """(phi(n), deg S_p, n/p, the nonzero lower coefficients of Phi_n) for the least prime p | n."""
    phi_n = cyclotomic_polynomial(n)
    tail = tuple((j, c) for j, c in enumerate(phi_n[:-1]) if c)
    if n == 1:
        return 1, 1, 1, tail  # folding modulo x - 1 already reduces fully
    step = n // _prime_factors(n)[0]
    return len(phi_n) - 1, n - step, step, tail


def _phi(n: int) -> int:
    return _modulus(n)[0]


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> tuple[int, ...]:
    """The power-basis vector of sum(c_i x^i) modulo Phi_n.

    Phi_n divides S_p(x) = sum_{i<p} x^(i*n/p), which divides x^n - 1, so
    the vector is folded modulo x^n - 1, reduced by S_p (p - 1 subtractions
    per top coefficient), and only then by the nonzero coefficients of
    Phi_n.
    """
    phi, top, step, tail = _modulus(n)
    v = list(coeffs)
    for i in range(n, len(v)):
        v[i % n] += v[i]
    del v[n:]
    for i in range(len(v) - 1, top - 1, -1):
        c = v[i]
        if c:
            for j in range(i - top, i, step):
                v[j] -= c
    del v[top:]
    for i in range(len(v) - 1, phi - 1, -1):
        c = v[i]
        if c:
            base = i - phi
            for j, m in tail:
                v[base + j] -= c * m
    del v[phi:]
    v += [0] * (phi - len(v))
    return tuple(v)


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
        return cls.from_powers(n, [0] * (k % n) + [1])

    @classmethod
    def from_powers(cls, n: int, coeffs: Iterable[int]) -> "CyclotomicInt":
        """sum(c_i * zeta^i) for coefficients c_0, c_1, ... of any length."""
        return cls(n, _reduce_mod_cyclotomic(coeffs, n))

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
    """Apply the ring homomorphism described by theta to f.

    A term c * q^e_q * Q_0^e_0 ... maps to c * zeta^a * u^b.  Each term adds
    c to slot a mod N of the dense row for u^b, a vector in Z[x]/(x^N - 1);
    each row is then reduced modulo Phi_N once, and zero rows are dropped.
    """
    if f.l != len(theta.Q_images):
        raise DomainError(f"map has {len(theta.Q_images)} Q-images, polynomial has {f.l}")
    n = theta.n
    a_images, b_images = zip(theta.q_image, *theta.Q_images)
    mul = operator.mul
    rows: dict[int, list[int]] = {}
    for exps, c in f.terms.items():
        b = sum(map(mul, exps, b_images))
        row = rows.get(b)
        if row is None:
            row = rows[b] = [0] * n
        row[sum(map(mul, exps, a_images)) % n] += c
    return CycloLaurent(n, {b: CyclotomicInt.from_powers(n, row) for b, row in rows.items()})
