"""Multipartition combinatorics.

Partitions, l-tuples of partitions, generalised hook lengths, shifted
symbols and their kappa sequences, the two combinatorial a-value formulas,
dominance orders, and the cyclic component-rotation action used for
G(l,p,n).  Everything is exact.

Every symbol entry is an integer plus c_j / r, so the symbol layer works in
ints scaled by r: ``_scaled_rows`` builds r times each row, and kappa,
both a-value formulas and dominance compute with ints only.
fractions.Fraction appears at the edges: ``shifted_symbol`` and ``kappa``
are Fraction views of the scaled rows, the a-values are returned as
Fractions, and dominance accepts Fraction sequences, which it scales to
ints over the lcm of their denominators.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, InternalError


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        ps = tuple(self.parts)
        object.__setattr__(self, "parts", ps)
        for i, p in enumerate(ps):
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise DomainError(f"parts must be positive integers, got {ps}")
            if i > 0 and ps[i - 1] < p:
                raise DomainError(f"parts must be weakly decreasing, got {ps}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row i (1-based); 0 beyond the last stored part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, i: int, j: int) -> bool:
        return i >= 1 and 1 <= j <= self.part(i)

    def nodes(self) -> Iterable[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


EMPTY = Partition(())


@dataclass(frozen=True)
class Multipartition:
    """An ordered l-tuple of partitions; the level l is fixed at construction."""

    components: tuple[Partition, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DomainError("a multipartition needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def level(self) -> int:
        return len(self.components)

    @property
    def rank(self) -> int:
        return sum(c.size for c in self.components)

    @property
    def length(self) -> int:
        return max(c.length for c in self.components)

    def __repr__(self) -> str:
        return f"Multipartition({tuple(c.parts for c in self.components)})"


def mp(*components: Sequence[int]) -> Multipartition:
    """Shorthand constructor from part sequences."""
    return Multipartition(tuple(Partition(tuple(c)) for c in components))


# ---------------------------------------------------------------------------
# JSON text format: [[2],[],[1,1]]


def multipartition_to_obj(m: Multipartition) -> list[list[int]]:
    return [list(c.parts) for c in m.components]


def multipartition_to_json(m: Multipartition) -> str:
    return json.dumps(multipartition_to_obj(m), separators=(",", ":"))


def multipartition_from_obj(obj) -> Multipartition:
    if not isinstance(obj, list) or not obj or not all(isinstance(c, list) for c in obj):
        raise DomainError("multipartition literal must be a nonempty array of arrays")
    return mp(*obj)


def multipartition_from_json(text: str) -> Multipartition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad multipartition literal: {exc}") from exc
    return multipartition_from_obj(obj)


# ---------------------------------------------------------------------------
# Elementary operations


def conjugate(p: Partition) -> Partition:
    if not p.parts:
        return EMPTY
    cols = p.parts[0]
    out = [0] * cols
    for part in p.parts:
        for k in range(part):
            out[k] += 1
    return Partition(tuple(out))


def n_function(p: Partition) -> int:
    """sum over rows of (i-1) * lambda_i."""
    return sum((i - 1) * part for i, part in enumerate(p.parts, start=1))


def gen_hook_length(lam: Partition, mu: Partition, i: int, j: int) -> int:
    """lambda_i - i + mu'_j - j + 1; the classical hook length when mu == lam."""
    if not lam.contains(i, j):
        raise DomainError(f"node ({i},{j}) lies outside the partition {lam.parts}")
    mu_conj_j = sum(1 for part in mu.parts if part >= j)
    return lam.parts[i - 1] - i + mu_conj_j - j + 1


def rebar(m: Multipartition) -> Partition:
    """All parts of all components merged and sorted decreasingly."""
    parts = [p for c in m.components for p in c.parts]
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def l_symbol(m: Multipartition, L: int) -> tuple[tuple[int, ...], ...]:
    """Beta numbers lambda_i + L - i, i = 1..L, per component."""
    if L < m.length:
        raise DomainError(f"symbol size {L} is smaller than the multipartition length {m.length}")
    return tuple(
        tuple(c.part(i) + L - i for i in range(1, L + 1)) for c in m.components
    )


# ---------------------------------------------------------------------------
# Charges, shifted symbols, kappa sequences


@dataclass(frozen=True)
class ChargeData:
    """A denominator r >= 1 and integer charges; m_j = charges[j] / r."""

    r: int
    charges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "charges", tuple(self.charges))
        if self.r < 1:
            raise DomainError("r must be a positive integer")
        if not self.charges:
            raise DomainError("at least one charge is required")

    @property
    def level(self) -> int:
        return len(self.charges)

    @property
    def m(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.r) for c in self.charges)


@dataclass(frozen=True)
class ShiftedSymbol:
    """Rows of entries lambda_i - i + s + m_j, i = 1..s+floor(m_j), per component."""

    size: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            for v in row:
                if v < 0:
                    raise DomainError(f"negative symbol entry {v}; size {self.size} is too small")


@dataclass(frozen=True)
class KappaSequence:
    """All shifted-symbol entries in weakly decreasing order, with n_m attached."""

    entries: tuple[Fraction, ...]
    n_m: Fraction = field(compare=False)

    def __post_init__(self):
        es = self.entries
        if any(es[i] < es[i + 1] for i in range(len(es) - 1)):
            raise DomainError("kappa entries must be weakly decreasing")


def min_symbol_size(m: Multipartition, charge: ChargeData) -> int:
    """Smallest size making every row long enough to hold its component's parts.

    With floor() as the integer part, all entries of a large-enough symbol
    are automatically nonnegative, for the multipartition and for the empty
    one alike; a-value invariance under size -> size + 1 is what makes this
    choice safe, and it is asserted in the test suite.
    """
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    s = m.length + 1
    for comp, c in zip(m.components, charge.charges):
        f = c // charge.r
        s = max(s, comp.length - f, 1 - f)
    return s


def _scaled_rows(m: Multipartition, charge: ChargeData, size: int) -> list[tuple[int, ...]]:
    """The shifted symbol times r: rows r*(lambda_i - i + size) + c_j, as ints."""
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    if size < 1:
        raise DomainError("symbol size must be >= 1")
    r = charge.r
    rows = []
    for comp, c in zip(m.components, charge.charges):
        width = size + c // r
        if width < comp.length:
            raise DomainError(
                f"symbol size {size} leaves a row of width {width} for a component of length {comp.length}"
            )
        # Entry i is top - r*i plus r*lambda_i; past the last part, a range.
        top = r * size + c
        row = (
            *(top + r * (p - i) for i, p in enumerate(comp.parts, start=1)),
            *range(top - r * (comp.length + 1), top - r * (width + 1), -r),
        )
        # Rows decrease strictly, so the last entry is the smallest.
        if row and row[-1] < 0:
            raise DomainError(f"negative symbol entry {Fraction(row[-1], r)}; size {size} is too small")
        rows.append(row)
    return rows


def _weighted_sum(entries: Sequence[int]) -> int:
    """sum over i of (i-1) * entries[i], 1-based."""
    return sum(i * v for i, v in enumerate(entries))


def shifted_symbol(m: Multipartition, charge: ChargeData, size: int | None = None) -> ShiftedSymbol:
    if size is None:
        size = min_symbol_size(m, charge)
    rows = _scaled_rows(m, charge, size)
    return ShiftedSymbol(size, tuple(tuple(Fraction(v, charge.r) for v in row) for row in rows))


def scaled_kappa(m: Multipartition, charge: ChargeData, size: int | None = None) -> tuple[int, ...]:
    """r times the kappa entries, as ints in weakly decreasing order."""
    if size is None:
        size = min_symbol_size(m, charge)
    return tuple(sorted((v for row in _scaled_rows(m, charge, size) for v in row), reverse=True))


def kappa(m: Multipartition, charge: ChargeData, size: int | None = None) -> KappaSequence:
    entries = scaled_kappa(m, charge, size)
    r = charge.r
    return KappaSequence(tuple(Fraction(v, r) for v in entries), Fraction(_weighted_sum(entries), r))


def a_value_combinatorial(m: Multipartition, charge: ChargeData) -> Fraction:
    """r * (n_m(lambda) - n_m(empty)), at a common symbol size for both.

    r * n_m is the weighted sum of the entries scaled by r, so this is exact
    in ints.
    """
    size, nil = _empty_part(charge, min_symbol_size(m, charge))
    return Fraction(_weighted_sum(scaled_kappa(m, charge, size)) - nil)


@lru_cache(maxsize=None)
def _empty_part(charge: ChargeData, size: int) -> tuple[int, int]:
    """The common symbol size for a multipartition of minimal size `size`, and r * n_m(empty) at it."""
    empty = Multipartition((EMPTY,) * charge.level)
    size = max(size, min_symbol_size(empty, charge))
    return size, _weighted_sum(scaled_kappa(empty, charge, size))


def a_value_hook_formula(m: Multipartition, charge: ChargeData) -> Fraction:
    """r * (n(merged parts) - sum over cross pairs of min(hook + m_s - m_t, 0)).

    Summed in ints as r * hook + c_s - c_t.
    """
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    r, cs = charge.r, charge.charges
    total = r * n_function(rebar(m))
    for s, comp in enumerate(m.components):
        for (i, j) in comp.nodes():
            for t, other in enumerate(m.components):
                if t == s:
                    continue
                h = r * gen_hook_length(comp, other, i, j) + cs[s] - cs[t]
                if h < 0:
                    total -= h
    return Fraction(total)


# ---------------------------------------------------------------------------
# Dominance


class Dominance(enum.Enum):
    STRICT = "strict"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _int_sequences(x, y) -> list[Sequence[int]]:
    """x and y as ints over one common denominator.

    Dominance is invariant under positive scaling.  Tuples and lists of ints
    come back as they are, so a caller that converts its sequences once
    allocates nothing per comparison.
    """
    seqs = [
        v.entries if isinstance(v, KappaSequence) else v if isinstance(v, (tuple, list)) else tuple(v)
        for v in (x, y)
    ]
    if all(type(v) is int for seq in seqs for v in seq):
        return seqs
    seqs = [[Fraction(v) for v in seq] for seq in seqs]
    d = math.lcm(*(v.denominator for seq in seqs for v in seq))
    return [[v.numerator * (d // v.denominator) for v in seq] for seq in seqs]


def dominates(x, y) -> Dominance:
    """Whether x dominates y under partial sums (after zero-padding).

    STRICT means x != y with every partial sum of x >= that of y; EQUAL
    means identical sequences; INCOMPARABLE covers everything else.
    """
    xs, ys = _int_sequences(x, y)
    if sum(xs) != sum(ys):
        raise DomainError("dominance is only defined for sequences with equal totals")
    run = 0
    differ = False
    for a, b in itertools.zip_longest(xs, ys, fillvalue=0):
        run += a - b
        if run < 0:
            return Dominance.INCOMPARABLE
        differ = differ or a != b
    return Dominance.STRICT if differ else Dominance.EQUAL


def multiset_dominates(x: Iterable, y: Iterable) -> bool:
    """Dominance (>= in every partial sum) of the decreasingly sorted multisets."""
    xs, ys = _int_sequences(x, y)
    if len(xs) != len(ys):
        raise DomainError("multiset dominance needs equal cardinalities")
    if sum(xs) != sum(ys):
        raise DomainError("multiset dominance needs equal sums")
    run = 0
    for a, b in zip(sorted(xs, reverse=True), sorted(ys, reverse=True)):
        run += a - b
        if run < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Component rotation for G(l,p,n)


def sigma_action(m: Multipartition, p: int, d: int) -> Multipartition:
    """Cyclic rotation by d-packages: the last d components move to the front."""
    if p < 1 or d < 1 or m.level != p * d:
        raise DomainError(f"level {m.level} != p*d = {p}*{d}")
    comps = m.components
    return Multipartition(comps[-d:] + comps[:-d])


def orbit_and_stabilizer(m: Multipartition, p: int, d: int) -> tuple[tuple[Multipartition, ...], int]:
    """The rotation orbit (in canonical order) and the stabilizer size p / |orbit|."""
    orbit = [m]
    cur = sigma_action(m, p, d)
    while cur != m:
        orbit.append(cur)
        cur = sigma_action(cur, p, d)
    if p % len(orbit):
        raise InternalError(f"rotation orbit of size {len(orbit)} does not divide p = {p}")
    orbit.sort(key=canonical_key)
    return tuple(orbit), p // len(orbit)


# ---------------------------------------------------------------------------
# Canonical order and enumeration


def partition_key(p: Partition) -> tuple:
    # Size descending, then parts lexicographically descending.
    return (-p.size, tuple(-x for x in p.parts))


def canonical_key(m: Multipartition) -> tuple:
    return tuple(partition_key(c) for c in m.components)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, sorted by the canonical partition order."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    if n == 0:
        return (EMPTY,)
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    out.sort(key=partition_key)
    return tuple(out)


def compositions(n: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative integers summing to n, lexicographic."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def enumerate_multipartitions(l: int, n: int) -> tuple[Multipartition, ...]:
    """All l-component multipartitions of rank n, in canonical order."""
    if l < 1 or n < 0:
        raise DomainError("need l >= 1 and n >= 0")
    out: list[Multipartition] = []

    def rec(idx: int, remaining: int, prefix: list[Partition]):
        if idx == l - 1:
            for p in partitions_of(remaining):
                out.append(Multipartition(tuple(prefix) + (p,)))
            return
        for k in range(remaining + 1):
            for p in partitions_of(k):
                prefix.append(p)
                rec(idx + 1, remaining - k, prefix)
                prefix.pop()

    rec(0, n, [])
    out.sort(key=canonical_key)
    return tuple(out)
