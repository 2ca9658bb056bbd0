"""Multipartition combinatorics.

Partitions, l-tuples of partitions, generalised hook lengths, shifted
symbols and their kappa sequences, the two combinatorial a-value formulas,
dominance orders, and the cyclic component-rotation action used for
G(l,p,n).  Everything is exact.

Every symbol entry is an integer plus c_j / r, so the symbol layer works in
ints scaled by r only: ``_scaled_rows`` builds r times each row,
``scaled_kappa`` is r times the kappa sequence, and both a-value formulas
return ints.  Dominance compares whatever exact numbers it is given (ints,
Fractions, any iterable of them); a positive scaling such as r leaves it
unchanged.

Partitions come from one table, ``partition_layers``: every rank up to a
bound, no part repeated more than a cap, each rank in canonical order.
``enumerate_multipartitions`` and the level-1 crystal layers of
``basicset`` (cap e' - 1) read it; nothing is cached.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
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


def multipartition_from_json(text: str) -> Multipartition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad multipartition literal: {exc}") from exc
    if not isinstance(obj, list) or not obj or not all(isinstance(c, list) for c in obj):
        raise DomainError("multipartition literal must be a nonempty array of arrays")
    return mp(*obj)


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
    return _weighted_sum(p.parts)


def gen_hook_length(lam: Partition, mu: Partition, i: int, j: int) -> int:
    """lambda_i - i + mu'_j - j + 1; the classical hook length when mu == lam."""
    if not 1 <= j <= lam.part(i):
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


# Rows are size + c_j // r wide, so a far-out charge would make a symbol
# of that many ints; _scaled_rows refuses one with more entries than this.
MAX_SYMBOL_ENTRIES = 10**6


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
    """The shifted symbol times r: rows r*(lambda_i - i + size) + c_j, as ints.

    The row widths are read first, so a symbol of more than
    MAX_SYMBOL_ENTRIES entries is refused before any row is built.
    """
    if charge.level != m.level:
        raise DomainError(f"charge level {charge.level} != multipartition level {m.level}")
    if size < 1:
        raise DomainError("symbol size must be >= 1")
    r = charge.r
    widths = [size + c // r for c in charge.charges]
    for comp, width in zip(m.components, widths):
        if width < comp.length:
            raise DomainError(
                f"symbol size {size} leaves a row of width {width} for a component of length {comp.length}"
            )
    if sum(widths) > MAX_SYMBOL_ENTRIES:
        raise DomainError(
            f"the shifted symbol would have {sum(widths)} entries, above the cap of {MAX_SYMBOL_ENTRIES}"
        )
    rows = []
    for comp, c, width in zip(m.components, charge.charges, widths):
        # Entry i is top - r*i plus r*lambda_i; past the last part, a range.
        top = r * size + c
        row = (
            *(top + r * (p - i) for i, p in enumerate(comp.parts, start=1)),
            *range(top - r * (comp.length + 1), top - r * (width + 1), -r),
        )
        # Rows decrease strictly, so the last entry is the smallest.  Once the
        # widths pass it is at least c mod r: a negative one is a bug.
        if row and row[-1] < 0:
            raise InternalError(f"negative symbol entry {Fraction(row[-1], r)}; size {size} is too small")
        rows.append(row)
    return rows


def _weighted_sum(entries: Sequence[int]) -> int:
    """sum over i of (i-1) * entries[i], 1-based."""
    return sum(i * v for i, v in enumerate(entries))


def scaled_kappa(m: Multipartition, charge: ChargeData, size: int) -> tuple[int, ...]:
    """r times the kappa entries, as ints in weakly decreasing order."""
    return tuple(sorted((v for row in _scaled_rows(m, charge, size) for v in row), reverse=True))


def a_value_combinatorial(m: Multipartition, charge: ChargeData) -> int:
    """r * (n_m(lambda) - n_m(empty)), at a common symbol size for both, as an int.

    r * n_m is the weighted sum of the entries scaled by r.
    """
    size = min_symbol_size(m, charge)
    return _weighted_sum(scaled_kappa(m, charge, size)) - _empty_part(charge, size)


@lru_cache(maxsize=None)
def _empty_part(charge: ChargeData, size: int) -> int:
    """r * n_m(empty) at symbol size `size`.

    The empty multipartition's minimal size is the maximum of 1 and the
    1 - floor(c_j / r); every multipartition's minimal size is a maximum over
    those terms and more, so it is a common size for both.
    """
    return _weighted_sum(scaled_kappa(Multipartition((EMPTY,) * charge.level), charge, size))


def a_value_hook_formula(m: Multipartition, charge: ChargeData) -> int:
    """r * (n(merged parts) - sum over cross pairs of min(hook + m_s - m_t, 0)), as an int.

    Summed as r * hook + c_s - c_t.
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
    return total


# ---------------------------------------------------------------------------
# Dominance


class Dominance(enum.Enum):
    STRICT = "strict"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominates(x, y) -> Dominance:
    """Whether x dominates y under partial sums (after zero-padding).

    x and y are iterables of exact numbers: ints, Fractions, or a mix.

    STRICT means x != y with every partial sum of x >= that of y; EQUAL
    means identical sequences; INCOMPARABLE covers everything else.
    """
    xs, ys = tuple(x), tuple(y)
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
    xs, ys = tuple(x), tuple(y)
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
    """The rotation orbit m, sigma(m), sigma^2(m), ... and the stabilizer size p / |orbit|."""
    orbit = [m]
    cur = sigma_action(m, p, d)
    while cur != m:
        orbit.append(cur)
        cur = sigma_action(cur, p, d)
    if p % len(orbit):
        raise InternalError(f"rotation orbit of size {len(orbit)} does not divide p = {p}")
    return tuple(orbit), p // len(orbit)


# ---------------------------------------------------------------------------
# Canonical order and enumeration


def canonical_key(m: Multipartition) -> tuple:
    # Each component by size descending, then parts lexicographically descending.
    return tuple((-c.size, tuple(-x for x in c.parts)) for c in m.components)


def partition_layers(n_max: int, cap: int | None = None) -> list[tuple[tuple[int, ...], ...]]:
    """The parts of the partitions of every rank 0..n_max, no part repeated more than cap times.

    Built one part size at a time: size j puts m <= cap copies of j in front
    of every partition, one rank j*m down, whose parts are all below j.
    That builds each rank in ascending order of its parts, so reversed it is
    in canonical partition order.  With cap None no multiplicity is bounded.
    """
    if n_max < 0:
        raise DomainError("cannot partition a negative integer")
    if cap is None:
        cap = n_max
    layers: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(n_max)]
    for j in range(1, n_max + 1):
        # Descending ranks: layers[k - j*m] is read before size j reaches it.
        for k in range(n_max, j - 1, -1):
            for m in range(1, min(cap, k // j) + 1):
                head = (j,) * m
                layers[k] += [head + x for x in layers[k - j * m]]
    return [tuple(reversed(layer)) for layer in layers]


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
    ranks = [tuple(map(Partition, layer)) for layer in partition_layers(n)]
    # tails[r]: the last components, of total rank r, in canonical order.  A
    # component put in front, its size from r down and each size in
    # canonical order, keeps that order.  The last pass builds only rank n,
    # the one returned, so tails[-1] is rank n after any number of passes.
    tails = [[(p,) for p in layer] for layer in ranks]
    for passes_left in range(l - 2, -1, -1):
        tails = [
            [(p,) + t for k in range(r, -1, -1) for p in ranks[k] for t in tails[r - k]]
            for r in (range(n + 1) if passes_left else (n,))
        ]
    return tuple(map(Multipartition, tails[-1]))
