"""Canonical basic sets.

The pipeline: split the parameter indices 0..l-1 into classes with no
cross-class root-of-unity coincidence, extract an integer charge vector
per class, build the class-local label sets as the vertices reachable
from the empty multipartition in a Fock-space crystal, then reassemble
over all ways of distributing the rank.  For G(l,p,n) the resulting set
is grouped into orbits of the cyclic component rotation in one pass over
the set, in canonical order, which meets each orbit first at its least
member, its representative; nothing is sorted there.

A class of one index needs no crystal walk: at level 1 the reachable
partitions of rank k are the e'-regular partitions of k, those with no
part repeated e' or more times (Misra-Miwa), and they are read from
``combinatorics.partition_layers`` with the multiplicity capped at e' - 1.
Nor does a class of level >= 2 with a cylindric charge (s weakly
increasing, s[-1] - s[0] < e'): its vertices are the FLOTW
multipartitions, generated by `_flotw_layers`.  The walk below serves the
other classes of level >= 2.

The classes and charges are read off the same exponents as the
semisimplicity criterion: ``schur.zeta_exponents`` sends q to zeta_N^a
and Q_j to zeta_N^(A_j), N = lcm(l, e), and every coincidence test and
charge congruence here is arithmetic on (N, a, A) mod N.

The crystal convention is pinned once and for all here:

* a node in row i, column j of component c has residue
  (j - i + s_c) mod e';
* addable and removable nodes of the chosen residue are read in order of
  strictly decreasing gamma = j - i + s_c, ties broken by increasing
  component index;
* adjacent addable-before-removable pairs cancel repeatedly;
* the good node is the earliest surviving addable one.

One walk down the rims of a vertex reads the good node of every residue
at once (`_good_nodes`); the breadth-first search (`_crystal_walk`)
follows each arrow it returns, and `f_tilde` is a lookup into the same
reading.  The convention above is unchanged by this.

Every vertex is a bare tuple of part tuples, and every layer comes out in
canonical order: the partition table and the FLOTW generator build it in
that order, and only a walked layer is sorted.  The assembly emits the
basic set in canonical order from those layers, and sorts only when its
classes interleave.  Partitions are validated only where they are
emitted: once per distinct part tuple of the layers the assembly
combines.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    ChargeData,
    Multipartition,
    Partition,
    canonical_key,
    compositions,
    enumerate_multipartitions,
    orbit_and_stabilizer,
    partition_layers,
)
from .errors import DomainError, InternalError
from .schur import CycloSpec, is_semisimple, zeta_exponents


# ---------------------------------------------------------------------------
# Dipper-Mathas splitting of the parameter indices


@dataclass(frozen=True)
class DMPartition:
    """Classes of parameter indices, and the order e' of q's image.

    classes[i] is an ascending tuple of indices.  A class's integer charges
    are lifted by `charge_for`.
    """

    classes: tuple[tuple[int, ...], ...]
    e_prime: int


@dataclass(frozen=True)
class UglovCharge:
    """Quantum characteristic and integer multicharge for one class.

    Each s_j is only pinned modulo e_prime by the defining root-of-unity
    equation; the minimal-absolute-value representative is chosen (ties go
    positive).  eq4_exact records whether the exact rational relation
    between the residual charges and the s_j held; when it does not, the
    discrepancy is kept in diagnostics rather than silently absorbed.
    """

    e_prime: int
    s: tuple[int, ...]
    eq4_exact: bool = True
    diagnostics: tuple[str, ...] = ()


def _witness_exists(N: int, steps: set[int], A: list[int], i: int, j: int) -> bool:
    # Q_i and q^d Q_j have one image for some -n < d < n: A_i - A_j is a step d*a mod N.
    return (A[i] - A[j]) % N in steps


def _solve_s(N: int, a: int, c: int) -> int:
    """Minimal-|s| solution of s*a == c mod N, ties going positive; its period is e'."""
    g = math.gcd(a, N)
    if c % g != 0:
        raise InternalError("unsolvable charge congruence inside a connected class")
    period = N // g
    s0 = ((c // g) * pow(a // g, -1, period)) % period if period > 1 else 0
    return min(s0, s0 - period, key=lambda s: (abs(s), -s))


def dm_partition(spec: CycloSpec, l: int, n: int) -> DMPartition:
    """Connected components of the coincidence graph, ordered by least element.

    Every image is read as an exponent of zeta_N (``zeta_exponents``):
    q -> zeta_N^a and Q_j -> zeta_N^(A_j).  Indices i and j are joined when
    A_i = d*a + A_j mod N for some -n < d < n.  e' = N / gcd(a, N) is the
    order of q's image.
    """
    N, a, A = zeta_exponents(spec, l)
    steps = {d * a % N for d in range(-n + 1, n)}
    # owner[i] is the least index of i's class: a join keeps the lesser
    # owner, so the owners, in order, give the classes by least element.
    owner = list(range(l))
    for i in range(l):
        for j in range(i + 1, l):
            if _witness_exists(N, steps, A, i, j):
                keep, drop = sorted((owner[i], owner[j]))
                owner = [keep if o == drop else o for o in owner]
    classes = [tuple(i for i in range(l) if owner[i] == o) for o in range(l) if owner[o] == o]

    # Independent re-check of the defining property: no cross-class witness.
    for x in range(len(classes)):
        for y in range(x + 1, len(classes)):
            for i in classes[x]:
                for j in classes[y]:
                    if _witness_exists(N, steps, A, i, j):
                        raise InternalError(f"cross-class witness between components {i} and {j}")

    return DMPartition(tuple(classes), N // math.gcd(a, N))


def charge_for(dm: DMPartition, class_index: int, spec: CycloSpec) -> UglovCharge:
    """The integer charge vector of one class, with its congruence diagnostics.

    Each s_j solves s_j*a = A_j - A_anchor mod N (``zeta_exponents``), so it
    is pinned modulo e'; `_solve_s` lifts it to the least |s_j|, ties going
    positive, and the anchor's s is 0.
    """
    cls = dm.classes[class_index]
    l = spec.level
    N, a, A = zeta_exponents(spec, l)
    s = tuple(_solve_s(N, a, A[idx] - A[cls[0]]) for idx in cls)
    # Substitution check: each s_j really solves its congruence.
    for idx, sj in zip(cls, s):
        if (sj * a - A[idx] + A[cls[0]]) % N != 0:
            raise InternalError(f"s_{idx} = {sj} does not solve its charge congruence")
    diagnostics: list[str] = []
    eq4 = True
    m = ChargeData(spec.r, spec.charges).m
    for idx, sj in zip(cls, s):
        lhs = m[idx] - m[cls[0]]
        rhs = sj - Fraction(spec.e * (idx - cls[0]), spec.k * l * spec.r)
        if lhs != rhs:
            eq4 = False
            diagnostics.append(
                f"charge relation inexact for index {idx}: m difference {lhs}, predicted {rhs}"
            )
    diagnostics.append(f"s vector {s} chosen modulo {dm.e_prime}")
    return UglovCharge(dm.e_prime, s, eq4, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Fock-space crystal


def _good_nodes(comps: tuple[tuple[int, ...], ...], s: tuple[int, ...], ep: int) -> dict[int, tuple[int, int]]:
    """The good addable node of every residue that has one: {t: (component, row)}.

    `comps` holds the parts of each component.  One walk down each rim
    buckets the addable and removable nodes by residue; a residue with no
    addable node has no good node and is never sorted.
    """
    addable: dict[int, list] = {}
    removable: dict[int, list] = {}
    for c, (parts, sc) in enumerate(zip(comps, s)):
        for i, p in enumerate(parts):
            # Row i + 1 ends in column p: an addable node at column p + 1
            # unless the row above is as short, a removable one at column p
            # unless the row below is as long.
            if i == 0 or parts[i - 1] > p:
                g = p - i + sc
                addable.setdefault(g % ep, []).append((-g, c, 0, i + 1))
            if i + 1 == len(parts) or parts[i + 1] < p:
                g = p - i - 1 + sc
                removable.setdefault(g % ep, []).append((-g, c, 1, i + 1))
        g = sc - len(parts)
        addable.setdefault(g % ep, []).append((-g, c, 0, len(parts) + 1))
    good = {}
    for t, word in addable.items():
        # Strictly decreasing gamma, ties by increasing component; no two
        # nodes share (gamma, component), so plain tuple order is that order.
        word.extend(removable.get(t, ()))
        word.sort()
        stack = []
        for entry in word:
            if entry[2] == 0:
                stack.append(entry)
            elif stack:
                stack.pop()
        if stack:
            good[t] = (stack[0][1], stack[0][3])
    return good


def _add_node(comps: tuple[tuple[int, ...], ...], c: int, row: int) -> tuple[tuple[int, ...], ...]:
    parts = comps[c]
    if row == len(parts) + 1:
        parts = parts + (1,)
    else:
        parts = parts[: row - 1] + (parts[row - 1] + 1,) + parts[row:]
    return comps[:c] + (parts,) + comps[c + 1 :]


def f_tilde(m: Multipartition, t: int, charge: UglovCharge) -> Multipartition | None:
    """Add the good node of residue t (read mod e'), or return None when there is none."""
    if m.level != len(charge.s):
        raise DomainError(f"charge has {len(charge.s)} entries for level {m.level}")
    comps = tuple(c.parts for c in m.components)
    node = _good_nodes(comps, charge.s, charge.e_prime).get(t % charge.e_prime)
    if node is None:
        return None
    return Multipartition(tuple(Partition(p) for p in _add_node(comps, *node)))


def _crystal_walk(lc: int, n_max: int, charge: UglovCharge) -> list[set[tuple[tuple[int, ...], ...]]]:
    """The crystal component of the empty multipartition, layer by layer, by breadth-first search (e' >= 2 above rank 0)."""
    s, ep = charge.s, charge.e_prime
    frontier = {((),) * lc}
    levels = [frontier]
    for rank in range(1, n_max + 1):
        frontier = {
            _add_node(x, c, row) for x in frontier for c, row in _good_nodes(x, s, ep).values()
        }
        for x in frontier:
            if sum(map(sum, x)) != rank:
                raise InternalError(f"a crystal arrow reached rank {sum(map(sum, x))} in layer {rank}")
        levels.append(frontier)
    return levels


def _vertex_key(x: tuple[tuple[int, ...], ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Sort key of a bare vertex: descending order of this key is canonical order."""
    return [(sum(p), p) for p in x]


def _flotw_layers(n_max: int, s: tuple[int, ...], ep: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """The FLOTW multipartitions of every rank 0..n_max, each rank in canonical order.

    For s weakly increasing with s[-1] - s[0] < e' (level >= 2), the crystal
    component of the empty multipartition is the set of multipartitions
    lambda with (Foda-Leclerc-Okado-Thibon-Welsh; rows 0-based here)

    * lambda^(j+1)_(i + d_j) <= lambda^(j)_i, d_j = s_(j+1) - s_j;
    * lambda^(lc-1)_i >= lambda^(0)_(i + w), w = e' + s_0 - s_(lc-1);
    * no part size k whose rightmost nodes, (k - row + s_j) mod e' over the
      rows of length k in every component, cover every residue.

    Components are placed in index order, each row by row, larger parts
    first.  Chaining the bounds of one lap round the cylinder gives
    lambda^(j)_i >= lambda^(0)_(i + e' - (s_j - s_0)), so once component 0
    is placed every later row has a lower bound as well as an upper one,
    and the rank the later components must still take is known.  A part
    size is checked against the residues that earlier components already
    cover when its run of rows is placed.  Each component is listed by
    decreasing size, and by decreasing parts within a size, so every rank
    collects its vertices in canonical order.
    """
    lc, full = len(s), (1 << ep) - 1
    # ring[m][k]: the residues k, k + 1, ..., k + m - 1 mod e' as a bitmask.
    ring = [[(run << k | run << k >> ep) & full for k in range(ep)] for run in ((1 << m) - 1 for m in range(ep))]
    # Component j's rows are bounded below by component 0's from row reach[j] on.
    reach = [ep - x + s[0] for x in s]
    layers: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in range(n_max + 1)]

    def component(sj, upper, lower, budget, covered):
        """The parts of one component, listed by size, each size in decreasing order.

        Row i lies in [lower[i], upper[i]] (upper non-increasing, rows past
        it empty), the parts sum to at most budget, and a run of m < e'
        equal parts k adds residues to covered[k] without filling it.
        """
        if budget < sum(lower):
            return []
        rows = len(upper)
        upper += (0,)
        low = lower + (0,) * (rows + 1 - len(lower))
        low_sum = [0] * (rows + 2)
        for i in range(rows, -1, -1):
            low_sum[i] = low_sum[i + 1] + low[i]
        by_size: list[list[tuple[int, ...]]] = [[] for _ in range(budget + 1)]
        # Depth first from the empty component; the largest run is pushed
        # last, so it is popped first.
        stack = [(0, budget + 1, 0, ())]
        while stack:
            i, cap, used, parts = stack.pop()
            if not low[i]:
                by_size[used].append(parts)
            left = budget - used
            if not left or i == rows:
                continue
            top = upper[i] if upper[i] < cap else cap - 1
            if left < top:
                top = left
            most = rows - i if rows - i < ep else ep - 1
            for k in range(low[i] or 1, top + 1):
                if most * k > left:
                    most = left // k
                while upper[i + most - 1] < k:
                    most -= 1
                taken = covered.get(k)
                for m in range(1, most + 1):
                    rest = i + m
                    if left - m * k >= low_sum[rest] and low[rest] < k:
                        if not taken or ring[m][(k + sj - rest) % ep] | taken != full:
                            stack.append((rest, k, used + m * k, parts + (k,) * m))
        return by_size

    def cover(covered, parts, sj):
        """`covered` with the residues of the runs of `parts` added."""
        covered = dict(covered)
        i = 0
        while i < len(parts):
            k = parts[i]
            rest = i + parts.count(k)
            covered[k] = covered.get(k, 0) | ring[rest - i][(k + sj - rest) % ep]
            i = rest
        return covered

    # Components placed so far, with the residues covered by all but the last.
    stack: list[tuple[tuple[tuple[int, ...], ...], int, dict[int, int]]] = [((), 0, {})]
    while stack:
        head, used, covered = stack.pop()
        j = len(head)
        if j:
            covered = cover(covered, head[-1], s[j - 1])
            p0 = head[0]
            upper = (n_max,) * (s[j] - s[j - 1]) + head[-1]
            # The least rank that components j + 1.. must still take.
            reserve = sum(sum(p0[reach[i]:]) for i in range(j + 1, lc))
            by_size = component(s[j], upper, p0[reach[j]:], n_max - used - reserve, covered)
        else:
            by_size = component(s[0], (n_max,) * n_max, (), n_max, covered)
        if j == lc - 1:
            for size, group in enumerate(by_size, used):
                layers[size] += [head + (x,) for x in group]
        else:
            # Smallest and last first, so that the stack pops canonical order.
            for size, group in enumerate(by_size):
                stack += [(head + (x,), used + size, covered) for x in reversed(group)]
    return layers


def uglov_levels(lc: int, n_max: int, charge: UglovCharge) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """Reachable vertices at every rank 0..n_max, each rank in canonical order.

    A vertex is the tuple of its components' parts.  At level 1 the crystal
    component of the empty partition is known in closed form: its rank-k
    layer is the e'-regular partitions of k (no part repeated e' or more
    times), whatever the charge, so it is read from the partition table
    with the multiplicity capped at e' - 1.  At level >= 2 a cylindric
    charge (s weakly increasing, s[-1] - s[0] < e') has the closed form of
    `_flotw_layers`, generated in canonical order.  Other charges are
    walked breadth-first along the crystal arrows, and each layer is sorted.
    No Partition is validated here.
    """
    if lc < 1 or n_max < 0:
        raise DomainError("need lc >= 1 and n_max >= 0")
    if len(charge.s) != lc:
        raise DomainError(f"charge has {len(charge.s)} entries for level {lc}")
    if charge.e_prime < 1:
        raise DomainError("quantum characteristic must be >= 1")
    if lc == 1:
        # With e' = 1 (eta^r = 1) the level-1 component algebra is
        # semisimple and every partition survives: no multiplicity bound.
        cap = charge.e_prime - 1 if charge.e_prime > 1 else None
        # zip over one layer wraps each partition as a one-component vertex.
        return [tuple(zip(layer)) for layer in partition_layers(n_max, cap)]
    s, ep = charge.s, charge.e_prime
    if ep == 1 and n_max:
        # eta^r = 1 with a level >= 2 class: semisimple only at rank 0.
        raise DomainError(
            "quantum characteristic 1 with a level >= 2 class: "
            "the component algebra is not semisimple and no crystal applies"
        )
    if all(a <= b for a, b in zip(s, s[1:])) and s[-1] - s[0] < ep:
        return list(map(tuple, _flotw_layers(n_max, s, ep)))
    return [tuple(sorted(layer, key=_vertex_key, reverse=True)) for layer in _crystal_walk(lc, n_max, charge)]


# ---------------------------------------------------------------------------
# Assembly


@dataclass(frozen=True)
class BasicSet:
    elements: tuple[Multipartition, ...]
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrbitDatum:
    """One rotation orbit: its least member, its size and its stabilizer's size.

    The CLI's text output labels it E^rep, or E^rep,i for each i below a
    stabilizer size above 1.
    """

    representative: Multipartition
    orbit_size: int
    stabilizer_size: int


@dataclass(frozen=True)
class OrbitLabelling:
    """The rotation orbits of a G(l,p,n) basic set, with the ambient set's diagnostics."""

    orbits: tuple[OrbitDatum, ...]
    diagnostics: tuple[str, ...] = ()


def assemble_basic_set(spec: CycloSpec, l: int, n: int) -> BasicSet:
    """All multipartitions whose class projections are crystal-reachable, in canonical order.

    When every class is a run of consecutive indices, canonical order is
    class-key order: class 0's projection compared first, then class 1's.
    The elements are emitted in that order.  Class 0's vertices of every
    rank are taken in class-key order (a lazy merge of its ordered layers),
    and each is followed by the later classes combined on the rank that
    remains.  Only interleaved classes, such as (0, 2) and (1,), are sorted
    afterwards.  Each distinct part tuple is validated once, as one
    Partition that every element using it shares.
    """
    if is_semisimple(spec, l, n):
        return BasicSet(enumerate_multipartitions(l, n))
    dm = dm_partition(spec, l, n)
    charges = [charge_for(dm, i, spec) for i in range(len(dm.classes))]
    diagnostics = tuple(
        f"class {dm.classes[i]}: {d}"
        for i, ch in enumerate(charges)
        if not ch.eq4_exact
        for d in ch.diagnostics
    )
    levels = [uglov_levels(len(cls), n, ch) for cls, ch in zip(dm.classes, charges)]
    last = len(levels) - 1
    expected = sum(
        math.prod(len(levels[i][k]) for i, k in enumerate(sizes)) for sizes in compositions(n, last + 1)
    )

    partitions: dict[tuple[int, ...], Partition] = {}
    built: dict[tuple[int, int], list[tuple[Partition, ...]]] = {}

    def partition(parts):
        if parts not in partitions:
            partitions[parts] = Partition(parts)
        return partitions[parts]

    def layer(i, k):
        """Class i's rank-k vertices as Partition tuples, built when first combined."""
        if (i, k) not in built:
            built[i, k] = [tuple(map(partition, x)) for x in levels[i][k]]
        return built[i, k]

    def ranked(i, k):
        """(rank, vertex) for class i's vertices of rank at most k, in class-key order."""
        merged = heapq.merge(
            *(zip(levels[i][r], itertools.repeat(r), layer(i, r)) for r in range(k + 1)),
            key=lambda item: _vertex_key(item[0]),
            reverse=True,
        )
        return ((r, x) for _, r, x in merged)

    def extend(heads, i):
        """Each (head, rank left) followed by class i's vertices that fit, in class-key order."""
        for head, k in heads:
            for r, x in ranked(i, k):
                yield head + x, k - r

    heads: Iterable[tuple[tuple[Partition, ...], int]] = [((), n)]
    for i in range(last):
        heads = extend(heads, i)
    combined = [head + x for head, k in heads for x in layer(last, k)]
    order = sum(dm.classes, ())
    if order == tuple(range(l)):
        elements = list(map(Multipartition, combined))
    else:
        # Interleaved classes: put each component at its index, then sort.
        where = [order.index(idx) for idx in range(l)]
        elements = sorted((Multipartition(tuple(x[pos] for pos in where)) for x in combined), key=canonical_key)
    if not len(set(elements)) == len(elements) == expected:
        raise InternalError(
            f"assembled {len(elements)} elements ({len(set(elements))} distinct), expected {expected}"
        )
    return BasicSet(tuple(elements), diagnostics)


def assemble_basic_set_gpn(spec: CycloSpec, l: int, p: int, n: int) -> OrbitLabelling:
    """Rotation-orbit labelling of the basic set for G(l,p,n).

    The charges of `spec` may be given as the d-block (d = l/p) or as the
    full p-periodic l-vector; the ambient G(l,1,n) parameters use p*r and
    the tiled charges.  The ambient set's diagnostics come with the orbits.

    One pass over the ambient set, in canonical order, meets each orbit
    first at its least member, its representative, so the orbits come out
    in order.  An orbit that leaves the elements not yet labelled shows
    that the set is not rotation-stable.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if l % p != 0:
        raise DomainError(f"p must divide l: {p} does not divide {l}")
    d = l // p
    charges = spec.charges
    if len(charges) == d:
        block = charges
    elif len(charges) == l:
        block = charges[:d]
        if charges != block * p:
            raise DomainError("charges must repeat their d-block p times")
    else:
        raise DomainError(f"expected {d} or {l} charges, got {len(charges)}")
    if not (n > 2 or (n == 2 and p % 2 == 1)):
        raise DomainError("need n > 2, or n = 2 with p odd")
    ambient = CycloSpec(spec.e, spec.k, spec.r * p, block * p)
    bs = assemble_basic_set(ambient, l, n)
    remaining = set(bs.elements)
    data: list[OrbitDatum] = []
    for x in bs.elements:
        if x not in remaining:
            continue
        orbit, stab = orbit_and_stabilizer(x, p, d)
        if not remaining.issuperset(orbit):
            # Happens only when no integer charge lift satisfies the exact
            # rational charge relation, so the pinned lift convention breaks
            # the rotation symmetry; orbit labelling is then undefined.
            detail = "; ".join(bs.diagnostics) or "no diagnostics recorded"
            raise DomainError(
                "the assembled set is not stable under component rotation, "
                f"so no orbit labelling exists under the chosen charge lifts ({detail})"
            )
        remaining.difference_update(orbit)
        data.append(OrbitDatum(x, len(orbit), stab))
    return OrbitLabelling(tuple(data), bs.diagnostics)
