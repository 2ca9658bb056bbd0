"""Exact arithmetic kernels.

Three rings, all with arbitrary-precision integer data and canonical forms:

* ``MultiLaurent`` -- Laurent polynomials in q, Q_0, ..., Q_{l-1} over Z,
  stored as a map from exponent vectors to nonzero coefficients.
* ``CyclotomicInt`` -- elements of Z[zeta_N] in the power basis modulo the
  N-th cyclotomic polynomial, so zero testing is coordinate-wise.
* ``CycloLaurent`` -- Laurent polynomials in one variable u with
  CyclotomicInt coefficients.

A product of MultiLaurent factors is multiplied sparse in the Q's and
dense in q.  The Schur formulas' factors are Phi_d(q) and binomials
q^h Q_s Q_t^(-1) - 1, so a product has few Q-monomials, each with a run of
q-terms.  A partial product maps each packed Q-exponent vector to its
q-polynomial, held as one int with a signed B-bit field per power of q
(Kronecker substitution in q only); B is sized from the product of the
factors' L1 norms, which bounds every coefficient.  It only multiplies: the
Schur formulas cancel their quotients factor by factor before they expand.
One private grid step, ``_product_grid``, multiplies and decodes the
result into a grid: a row per Q-monomial, holding its q-polynomial, and a
column per total degree.  Two finishers read the grid column by column,
from the highest total degree down, which is descending graded-lex order
with no sort: ``product_divide`` builds the MultiLaurent, and
``render_product`` formats its text, building each distinct string once
and no term map.  ``MultiLaurent.render`` is ``render_product`` of one
factor.

``cyclic_product`` multiplies products of runs 1 + x^g + ... and binomials
x^u - x^v in Z[x]/(x^N - 1).  While the product fits in
``_PACKED_BYTES_MAX`` bytes, it is one int with a signed field per power of
x, sized the same way, and multiplying by x^u is a cyclic bit rotation;
past that it is a sparse dict.  ``_signed_fields`` decodes the packed ints
of both kernels.

``SpecMap`` describes a ring homomorphism sending q and each Q_j to a root
of unity times a power of u; ``specialise`` applies it.

Specialisation works in linear time.  One binning step, ``_u_rows``, reads
the exponent vectors column by column: each variable with a nonzero image
adds one ``map`` to the terms' zeta-exponents and one to their u-degrees, so
a term costs no per-term dot product.  Each term then adds its coefficient
to one slot of a dense row: one row per u-degree, a vector in
Z[x]/(x^N - 1), and a single row when every u-image is 0.  Two readers
share the rows.  ``specialise`` reduces every row once, and ``u_valuation``
reduces them from the lowest u-degree up and stops at the first that
survives.  A row is reduced by ``_reduce_mod_cyclotomic``, which folds by
x^N - 1, then reduces by
S_p(x) = 1 + x^(N/p) + ... + x^((p-1)N/p) for the smallest prime p | N (a
multiple of Phi_N with p nonzero coefficients), and last by the nonzero
coefficients of Phi_N itself.  Phi_N is monic, so every reduction order
gives the same power-basis vector.  ``cyclotomic_polynomial`` builds Phi_N
from the Moebius product over squarefree k | N of (x^(N/k) - 1)^mu(k),
one linear multiplication or exact division per binomial.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Iterable, Mapping

from .errors import DomainError, InternalError

# ---------------------------------------------------------------------------
# Multivariate Laurent polynomials over Z


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
                if len(exps) != l + 1:
                    raise DomainError(
                        f"exponent vector {exps} has length {len(exps)}, expected {l + 1}"
                    )
                if c != 0:
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
        # Missing trailing exponents are 0; a vector that is too long is refused by __init__.
        exps = (e_q, *e_Q)
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
        empty.  This is ``render_product`` of the one factor.
        """
        return render_product(self.l, [self])


# Signed array typecodes by word size in bytes.
_SIGNED_WORDS = {array(code).itemsize: code for code in "bhilq"}


def _field_bytes(bound: int) -> int:
    """The bytes of a signed field that holds every integer of absolute value <= bound.

    The least of 1, 2, 4 and 8, or past that of the powers of two.
    """
    return 1 << max(0, bound.bit_length().bit_length() - 3)


def _signed_fields(packed: list[int], n_fields: int, nb: int) -> list[int]:
    """The fields c_0, ..., c_(n_fields - 1) of each value, the values one after another.

    Each value is sum c_j 2^(Bj) over j < n_fields, with B = 8 nb and every
    c_j a signed B-bit field.  2^(B-1) is added to every field, so that no
    negative field borrows from the next, and XORed back, which leaves each
    field in two's complement: one ``array`` of signed words decodes every
    field up to 8 bytes, and ``int.from_bytes`` each one past that.
    """
    B = 8 * nb
    offset = (1 << B - 1) * (((1 << B * n_fields) - 1) // ((1 << B) - 1))
    n_bytes = n_fields * nb
    buf = b"".join([((v + offset) ^ offset).to_bytes(n_bytes, sys.byteorder) for v in packed])
    if nb <= 8:
        return array(_SIGNED_WORDS[nb], buf).tolist()
    return [int.from_bytes(buf[i:i + nb], sys.byteorder, signed=True) for i in range(0, len(buf), nb)]


# q stays in the rows while the factors' term counts multiply to at least
# this many per column of the grid; below that, most cells would be zero, so
# q goes into the key and a row is one term.
_TERM_PRODUCTS_PER_COLUMN = 4


def _multiply(operands, weights: list[int], row_shift: int) -> dict[int, int]:
    """The packed product: each factor's terms packed into keys and rows, then every row times every row."""
    mul = operator.mul
    acc = {0: 1}
    for terms, lo in operands:
        packed: dict[int, int] = {}
        get = packed.get
        base = sum(map(mul, lo, weights))
        lo_q = lo[0]
        for exps, c in terms.items():
            key = sum(map(mul, exps, weights)) - base
            packed[key] = get(key, 0) + (c << (exps[0] - lo_q) * row_shift)
        out: dict[int, int] = {}
        out_get = out.get
        for ka, ra in acc.items():
            for kb, rb in packed.items():
                k = ka + kb
                v = out_get(k, 0) + ra * rb
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        acc = out
    return acc


def _product_grid(l: int, factors: Iterable[MultiLaurent]):
    """Multiply the factors into the grid that ``product_divide`` and ``render_product`` read.

    None when a factor is zero.  Otherwise (coeffs, n_cols, lead, Q_runs):
    the list ``coeffs`` holds the grid row by row, ``n_cols`` cells per row,
    zero cells included; row r's cell j is the term with q exponent
    ``lead[r] + j`` and Q exponents ``Q_runs[0][r], ..., Q_runs[l-1][r]``.
    Read column by column from the last, each column's rows in order, the
    cells are in descending graded-lex order.  No Q-monomial has two rows
    unless q is in the key, and then ``n_cols`` is 1.

    A partial product is a dict from keys to rows.  A key packs a
    Q-monomial's exponents, shifted so that the least exponent of each
    variable is 0, in fields of ``bits`` bits, under a top field that holds
    minus their total (the Q-degree): adding keys multiplies Q-monomials.
    A row is that Q-monomial's q-polynomial, shifted to least q exponent 0,
    as one int with a signed field of B bits per power of q (Kronecker
    substitution in q only).  A factor step multiplies every row of the
    product by every row of the factor.

    The product of the factors' L1 norms (sums of absolute coefficients)
    bounds every coefficient of every partial product, and B is 8 times the
    ``_field_bytes`` that hold it as a signed field.  Each row is shifted up
    by its Q-degree above the lowest, so that a column of this grid holds
    one total degree, and ``_signed_fields`` decodes the shifted rows.
    Descending keys put the rows in ascending Q-degree, so reading the
    columns from the highest total degree down gives descending graded-lex
    order with no sort of the terms.

    The layout is chosen before anything is multiplied.  Z[q^+-1, Q^+-1]
    has no zero divisors, so the product's lowest and highest Q-degree
    parts are the products of the factors' own, and its Q-degree span is
    the sum of the factors' spans: that grid has q_spread + 1 + Q_spread
    columns.  When the factors' term counts multiply to fewer than
    ``_TERM_PRODUCTS_PER_COLUMN`` per column, the grid would be mostly zero
    cells (products sparse in q, a spread like q^(2^40), or rows whose
    Q-degrees lie far apart).  Then q goes into the key as well, the top
    field holds the total degree, so that descending keys are in descending
    graded-lex order, and every row is a single coefficient: the same steps
    then allocate nothing in proportion to the spread of any exponent.
    """
    width = l + 1
    operands = []
    shift = [0] * width
    spread = q_spread = Q_spread = 0
    n_products = 1
    bound = 1
    zero = False
    for f in factors:
        if f.l != l:
            raise DomainError(f"mixed variable counts: {f.l} != {l}")
        terms = f.terms
        if not terms:
            zero = True
            continue
        cols = tuple(zip(*terms))
        lo = tuple(map(min, cols))
        hi = tuple(map(max, cols))
        spread += sum(hi) - sum(lo)
        q_spread += hi[0] - lo[0]
        Q_degrees = [sum(exps) - exps[0] for exps in terms]
        Q_spread += max(Q_degrees) - min(Q_degrees)
        bound *= sum(map(abs, terms.values()))
        n_products *= len(terms)
        shift = list(map(operator.add, shift, lo))
        operands.append((terms, lo))
    if zero:
        return None
    # Every shifted exponent of the product, and its shifted total degree,
    # lies in [0, spread], so no sum of keys carries from one field into the
    # next.
    bits = spread.bit_length()
    nb = _field_bytes(bound)
    B = 8 * nb
    deg_shift = bits * width
    n_cols = q_spread + 1 + Q_spread
    if _TERM_PRODUCTS_PER_COLUMN * n_cols <= n_products:
        row_shift = B
        weights = [0] + [(1 << bits * (l - j)) - (1 << deg_shift) for j in range(1, width)]
    else:
        n_cols = 1
        row_shift = 0
        weights = [(1 << deg_shift) + (1 << bits * (l - j)) for j in range(width)]
    acc = _multiply(operands, weights, row_shift)
    keys = sorted(acc, reverse=True)
    top = keys[0] >> deg_shift
    skews = [top - (k >> deg_shift) for k in keys] if row_shift else [0] * len(keys)
    coeffs = _signed_fields([acc[k] << o * B for o, k in zip(skews, keys)], n_cols, nb)
    # The key fields, each as a run of len(keys) values: q, then each Q_j.
    n = len(keys)
    mask = (1 << bits) - 1
    fields = [(k >> pos & mask) + s for pos, s in zip(map(bits.__mul__, range(l, -1, -1)), shift) for k in keys]
    lead = list(map(operator.sub, fields[:n], skews))
    return coeffs, n_cols, lead, [fields[i:i + n] for i in range(n, width * n, n)]


def product_divide(l: int, factors: Iterable[MultiLaurent]) -> MultiLaurent:
    """The expanded product of the factors, multiplied in the order given.

    It only multiplies: the Schur formulas cancel every quotient in their
    factor multisets before they expand.  The name and the positional
    ``(l, factors)`` call stay because the benchmark's tracer patches
    ``schur.product_divide`` and keys its ``exactalg.product_divide.*``
    metrics on it.  Every factor's variable count is checked, so a zero
    factor gives zero only among factors of l variables.

    ``_product_grid`` multiplies and decodes; this finisher reads the grid
    column by column, from the highest total degree down, into the term
    map, so the terms come out in the order ``render`` prints.
    ``render_product`` is the other finisher, which formats the same grid
    without building the map.
    """
    grid = _product_grid(l, factors)
    if grid is None:
        return MultiLaurent.zero(l)
    coeffs, n_cols, lead, Q_runs = grid
    Qts = list(zip(*Q_runs)) or [()] * len(lead)
    # Every key has l + 1 fields and the grid holds no term twice, so the
    # validating constructor is skipped.
    res = MultiLaurent.__new__(MultiLaurent)
    res.l = l
    res.terms = {
        (c + j,) + Qt: v
        for j in range(n_cols - 1, -1, -1)
        for c, Qt, v in zip(lead, Qts, coeffs[j::n_cols])
        if v
    }
    return res


def _signed(c: int, unit: str) -> str:
    # The text before a term's monomial: its sign, then its coefficient
    # followed by ``unit``.  Before a monomial (``unit`` not empty) a
    # coefficient of +-1 is only its sign.
    body = "" if unit and abs(c) == 1 else f"{abs(c)}{unit}"
    return f" + {body}" if c > 0 else f" - {body}"


def _lead(first: str) -> str:
    # The first term's text: its " + " dropped, its " - " a bare minus.
    return first[3:] if first[1] == "+" else f"-{first[3:]}"


def _power(name: str, e: int, sep: str) -> str:
    # name^e followed by sep, or nothing for e = 0.
    return "" if e == 0 else f"{name}{sep}" if e == 1 else f"{name}^{e}{sep}"


def render_product(l: int, factors: Iterable[MultiLaurent]) -> str:
    """``product_divide(l, factors).render()``, formatted straight from the grid.

    No term tuple, term map or sort: each distinct string is built once --
    every row's Q-monomial from one table per variable, every q power and
    every signed coefficient, with a unit coefficient dropped in the table
    -- and the grid is read column by column, from the highest total degree
    down, three strings per nonzero cell.  A monomial's strings end in
    ``*`` where another factor follows, so the only text that needs its own
    case is the constant term's, at most one cell.
    """
    grid = _product_grid(l, factors)
    if grid is None:
        return "0"
    coeffs, n_cols, lead, Q_runs = grid
    n = len(lead)
    # Each row's Q-monomial, e.g. "Q0^2*Q2^-1"; "" for Q_0^0 ... Q_{l-1}^0.
    parts = [map({e: _power(f"Q{j}", e, "*") for e in set(run)}.__getitem__, run) for j, run in enumerate(Q_runs)]
    Q_text = [s[:-1] for s in map("".join, zip(*parts))] if parts else [""] * n
    # Each cell's q power, row by row like coeffs, followed by "*" for the
    # row's Q-monomial.  With one column, q was in the key and its powers
    # may lie far apart; otherwise one table covers them all.
    if n_cols == 1:
        q_grid = [_power("q", e, "*") for e in lead]
    else:
        lo = min(lead)
        star = [_power("q", e, "*") for e in range(lo, max(lead) + n_cols)]
        q_grid = list(chain.from_iterable(star[e - lo:e - lo + n_cols] for e in lead))
    # Rows with no Q-monomial: their q powers end the monomial, and one of
    # their cells may be the constant term.
    constant = None
    for r in compress(range(n), map(operator.not_, Q_text)):
        q_grid[r * n_cols:(r + 1) * n_cols] = [_power("q", e, "") for e in range(lead[r], lead[r] + n_cols)]
        if 0 <= -lead[r] < n_cols and coeffs[r * n_cols - lead[r]]:
            constant = r
    coef_text = {c: _signed(c, "*") for c in set(coeffs)}
    pieces: list[str] = []
    for j in range(n_cols - 1, -1, -1):
        col = coeffs[j::n_cols]
        at = len(pieces)
        coefs = map(coef_text.__getitem__, compress(col, col))
        pieces += chain.from_iterable(zip(coefs, compress(q_grid[j::n_cols], col), compress(Q_text, col)))
        if constant is not None and j == -lead[constant]:
            # The constant term is its whole coefficient, 1 included.
            pieces[at + 3 * (constant - col[:constant].count(0))] = _signed(col[constant], "")
    # The grid and the per-cell q strings are freed before the text is joined.
    del grid, coeffs, col, q_grid
    pieces[0] = _lead(pieces[0])
    return "".join(pieces)


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
    # poly / (x^m - 1), which must be exact (a remainder is a bug in
    # cyclotomic_polynomial, the only caller): quot[i] = quot[i - m] - poly[i].
    d = len(poly) - 1 - m
    quot = [0] * (d + 1)
    for i in range(d + 1):
        quot[i] = (quot[i - m] if i >= m else 0) - poly[i]
    if poly[d + 1:] != [quot[i - m] if i >= m else 0 for i in range(d + 1, len(poly))]:
        raise InternalError("cyclotomic polynomial division left a remainder")
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


# cyclic_product packs its product into one int while that int, n fields of
# _field_bytes each, has at most this many bytes.  A packed step costs time
# in proportion to n, a sparse one in proportion to the product's support,
# which for Ariki's criterion stays at a few hundred to a few thousand terms
# whatever n is.  The crossover measured on the criterion's images (best of
# 3, CPython 3.11, x86-64) lies at 70 to 330 KiB for l = 3 and 4 with
# n >= 2, the shapes whose product costs the most; at 20 KiB for l = 2,
# n = 5, and 3 KiB for l = 1, where either way takes under a millisecond.
_PACKED_BYTES_MAX = 1 << 16


def _packed_binomial(p: int, bits: int, width: int, mask: int) -> int:
    """p * (x^u - 1) in the packed ring: p rotated left by bits = B u, minus p."""
    p = ((p << bits) & mask | p >> width - bits) - p
    return p + mask if p < 0 else p


def cyclic_product(n: int, runs: list[tuple[int, int]], binomials: list[tuple[int, int]]) -> list[int]:
    """The coefficients of x^0, ..., x^(n-1) of a product in Z[x]/(x^n - 1).

    Each (g, m) of ``runs`` is 1 + x^g + ... + x^(g(m-1)), and each (u, v)
    of ``binomials`` is x^u - x^v with u != v mod n.  The product of their
    L1 norms, prod m * 2^len(binomials), bounds every coefficient of every
    partial product, so a field of ``_field_bytes`` of it, B bits, holds
    each one.

    While n fields fit in ``_PACKED_BYTES_MAX`` bytes, the product is one
    int with a signed B-bit field per power of x.  Under x -> 2^B,
    Z[x]/(x^n - 1) maps into Z/(2^(Bn) - 1), and multiplying by x^u is a
    cyclic rotation by Bu bits.  The value is kept in [0, 2^(Bn) - 1], so a
    rotation is two shifts and a mask, and no step divides by the modulus.
    A run costs m - 1 rotations and additions, by Horner's rule.  A binomial
    is x^v (x^(u-v) - 1): one rotation and one subtraction, and the x^v of
    every binomial is applied as one rotation at the end.  The fields of the
    representative of absolute value below 2^(Bn-1) are the coefficients.

    Past that size the product is kept sparse, as {exponent mod n:
    coefficient}, and every factor's terms are multiplied into it.
    """
    bound = 1 << len(binomials)
    for _, m in runs:
        bound *= m
    nb = _field_bytes(bound)
    if n * nb > _PACKED_BYTES_MAX:
        images = [Counter(g * j % n for j in range(m)) for g, m in runs]
        images += [{u: 1, v: -1} for u, v in binomials]
        acc = {0: 1}
        for image in images:
            prod: dict[int, int] = {}
            for x, c in acc.items():
                for y, d in image.items():
                    z = (x + y) % n
                    prod[z] = prod.get(z, 0) + c * d
            acc = {x: c for x, c in prod.items() if c}
        row = [0] * n
        for x, c in acc.items():
            row[x] = c
        return row
    B = 8 * nb
    width = n * B
    mask = (1 << width) - 1
    p = 1
    for g, m in runs:
        bits = g % n * B
        acc = p
        for _ in range(m - 1):
            acc = ((acc << bits) & mask | acc >> width - bits) + p
            if acc > mask:
                acc -= mask
        p = acc
    for u, v in binomials:
        p = _packed_binomial(p, (u - v) % n * B, width, mask)
    bits = sum(v for _, v in binomials) % n * B
    p = (p << bits) & mask | p >> width - bits
    return _signed_fields([p - mask if p >> width - 1 else p], n, nb)


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

    def __repr__(self) -> str:
        return f"CyclotomicInt({self.n}, {self.coeffs})"

    def render(self) -> str:
        """Powers ascending, e.g. ``1 - z + 2*z^3``, in ``render_product``'s term grammar."""
        pieces = [_signed(c, "*" if e else "") + _power("z", e, "") for e, c in enumerate(self.coeffs) if c]
        if not pieces:
            return "0"
        pieces[0] = _lead(pieces[0])
        return "".join(pieces)


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
        """Powers of u descending, e.g. ``(1 + z)*u^2 + (-z)``."""
        if not self.terms:
            return "0"
        # _power("*u", e, "") is "" for e = 0, "*u" for e = 1 and "*u^e" otherwise.
        terms = sorted(self.terms.items(), reverse=True)
        return " + ".join(f"({c.render()}){_power('*u', e, '')}" for e, c in terms)


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


def _weighted_columns(cols, images):
    # sum(image * col) over the variables whose image is nonzero, one map per
    # such variable; None when every image is 0.
    total = None
    for col, w in zip(cols, images):
        if w:
            term = map(w.__mul__, col)
            total = term if total is None else map(operator.add, total, term)
    return total


def _u_rows(f: MultiLaurent, theta: SpecMap) -> dict[int, list[int]]:
    """{u-degree b: the unreduced dense row of f's image at u^b, a vector in Z[x]/(x^N - 1)}.

    A term c * q^e_q * Q_0^e_0 ... maps to c * zeta^a * u^b and adds c to
    slot a mod N of row b.  The exponents a and b are summed column by column
    over the exponent vectors; when every u-image is 0, all terms go to row 0.
    """
    if f.l != len(theta.Q_images):
        raise DomainError(f"map has {len(theta.Q_images)} Q-images, polynomial has {f.l}")
    if not f.terms:
        return {}
    n = theta.n
    a_images, b_images = zip(theta.q_image, *theta.Q_images)
    cols = list(zip(*f.terms))
    slots = _weighted_columns(cols, a_images)
    slots = repeat(0) if slots is None else map(n.__rmod__, slots)
    degrees = _weighted_columns(cols, b_images)
    coeffs = f.terms.values()
    if degrees is None:
        row = [0] * n
        for a, c in zip(slots, coeffs):
            row[a] += c
        return {0: row}
    rows: dict[int, list[int]] = {}
    for b, a, c in zip(degrees, slots, coeffs):
        row = rows.get(b)
        if row is None:
            row = rows[b] = [0] * n
        row[a] += c
    return rows


def specialise(f: MultiLaurent, theta: SpecMap) -> CycloLaurent:
    """Apply the ring homomorphism described by theta to f.

    Every row of ``_u_rows`` is reduced modulo Phi_N once, and zero rows are
    dropped.  ``u_valuation`` reads the same rows and reduces only the lowest.
    """
    n = theta.n
    return CycloLaurent(n, {b: CyclotomicInt.from_powers(n, row) for b, row in _u_rows(f, theta).items()})


def u_valuation(f: MultiLaurent, theta: SpecMap) -> int | None:
    """``specialise(f, theta).valuation()``, or None when the image is zero.

    The rows are reduced modulo Phi_N from the lowest u-degree up, and the
    first row that survives is the valuation: the rows above it are never
    reduced.
    """
    n = theta.n
    rows = _u_rows(f, theta)
    for b in sorted(rows):
        if any(_reduce_mod_cyclotomic(rows[b], n)):
            return b
    return None
