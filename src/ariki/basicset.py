"""Canonical basic sets.

The pipeline: split the parameter indices 0..l-1 into classes with no
cross-class root-of-unity coincidence, extract an integer charge vector
per class, build the class-local label sets as the vertices reachable
from the empty multipartition in a Fock-space crystal, then reassemble
over all ways of distributing the rank.  For G(l,p,n) the resulting set
is grouped into orbits of the cyclic component rotation.

A class of one index needs no crystal walk: at level 1 the reachable
partitions of rank k are the e'-regular partitions of k, those with no
part repeated e' or more times (Misra-Miwa), and they are read from
``combinatorics.partition_layers`` with the multiplicity capped at e' - 1.
The walk below serves the classes of level >= 2.

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

The search keeps every vertex as a bare tuple of part tuples.  Partition
and Multipartition objects are built, and sorted, only where they are
emitted: for the crystal layers that the assembly combines, and for the
one layer that `uglov_multipartitions` returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    Multipartition,
    Partition,
    canonical_key,
    compositions,
    enumerate_multipartitions,
    multipartition_to_json,
    orbit_and_stabilizer,
    partition_layers,
    sigma_action,
)
from .errors import DomainError, InternalError
from .schur import CycloSpec, is_semisimple, zeta_exponents


# ---------------------------------------------------------------------------
# Dipper-Mathas splitting of the parameter indices


@dataclass(frozen=True)
class DMPartition:
    """Classes of parameter indices, with per-class charge vectors.

    classes[i] is an ascending tuple of indices; s_vectors[i] the integer
    charges (first entry 0); m_residual[i] the projected rational charges.
    """

    classes: tuple[tuple[int, ...], ...]
    s_vectors: tuple[tuple[int, ...], ...]
    m_residual: tuple[tuple[Fraction, ...], ...]
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
    A_i = d*a + A_j mod N for some -n < d < n, and each class charge s_j
    solves s_j*a = A_j - A_anchor mod N, so it is pinned modulo the order
    e' = N / gcd(a, N) of q's image.
    """
    N, a, A = zeta_exponents(spec, l)
    steps = {d * a % N for d in range(-n + 1, n)}
    adj = {i: set() for i in range(l)}
    for i in range(l):
        for j in range(i + 1, l):
            if _witness_exists(N, steps, A, i, j):
                adj[i].add(j)
                adj[j].add(i)
    # Each search starts from the least index not yet in a class, so the
    # classes come out ordered by least element.
    classes: list[tuple[int, ...]] = []
    for start in range(l):
        if any(start in cls for cls in classes):
            continue
        comp, stack = {start}, [start]
        while stack:
            new = adj[stack.pop()] - comp
            comp |= new
            stack += new
        classes.append(tuple(sorted(comp)))

    # Independent re-check of the defining property: no cross-class witness.
    for x in range(len(classes)):
        for y in range(x + 1, len(classes)):
            for i in classes[x]:
                for j in classes[y]:
                    if _witness_exists(N, steps, A, i, j):
                        raise InternalError(f"cross-class witness between components {i} and {j}")

    s_vectors = tuple(tuple(_solve_s(N, a, A[idx] - A[cls[0]]) for idx in cls) for cls in classes)
    m = spec.charge_data().m
    m_residual = tuple(tuple(m[idx] for idx in cls) for cls in classes)
    return DMPartition(tuple(classes), s_vectors, m_residual, N // math.gcd(a, N))


def charge_for(dm: DMPartition, class_index: int, spec: CycloSpec) -> UglovCharge:
    """Package the charge vector of one class, with its congruence diagnostics."""
    cls = dm.classes[class_index]
    s = dm.s_vectors[class_index]
    l = spec.level
    N, a, A = zeta_exponents(spec, l)
    # Substitution check: each s_j really solves its congruence.
    for idx, sj in zip(cls, s):
        if (sj * a - A[idx] + A[cls[0]]) % N != 0:
            raise InternalError(f"s_{idx} = {sj} does not solve its charge congruence")
    diagnostics: list[str] = []
    eq4 = True
    m = dm.m_residual[class_index]
    for pos, (idx, sj) in enumerate(zip(cls, s)):
        lhs = m[pos] - m[0]
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
    """The crystal component of the empty multipartition, layer by layer, by breadth-first search (e' >= 2)."""
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


def uglov_levels(lc: int, n_max: int, charge: UglovCharge) -> list[set[tuple[tuple[int, ...], ...]]]:
    """Reachable vertices at every rank 0..n_max, unordered.

    A vertex is the tuple of its components' parts.  At level 1 the crystal
    component of the empty partition is known in closed form: its rank-k
    layer is the e'-regular partitions of k (no part repeated e' or more
    times), whatever the charge, so it is read from the partition table
    with the multiplicity capped at e' - 1.  Levels
    >= 2 are found by a breadth-first walk along the crystal arrows.  No
    Partition is validated and no layer is sorted here: callers build and
    order only the layers they emit.
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
        return [{(x,) for x in layer} for layer in partition_layers(n_max, cap)]
    if charge.e_prime == 1:
        # eta^r = 1 with a level >= 2 class: semisimple only at rank 0.
        if n_max == 0:
            return [{((),) * lc}]
        raise DomainError(
            "quantum characteristic 1 with a level >= 2 class: "
            "the component algebra is not semisimple and no crystal applies"
        )
    return _crystal_walk(lc, n_max, charge)


def uglov_multipartitions(lc: int, nc: int, charge: UglovCharge) -> tuple[Multipartition, ...]:
    """The rank-nc layer of the crystal component of the empty multipartition, canonically sorted."""
    layer = [Multipartition(tuple(map(Partition, x))) for x in uglov_levels(lc, nc, charge)[nc]]
    layer.sort(key=canonical_key)
    return tuple(layer)


# ---------------------------------------------------------------------------
# Assembly


@dataclass(frozen=True)
class BasicSet:
    elements: tuple[Multipartition, ...]
    spec: CycloSpec
    l: int
    n: int
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrbitDatum:
    representative: Multipartition
    orbit_size: int
    stabilizer_size: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != self.stabilizer_size:
            raise InternalError(f"{len(self.labels)} labels for a stabilizer of size {self.stabilizer_size}")


@dataclass(frozen=True)
class OrbitLabelling:
    """The rotation orbits of a G(l,p,n) basic set, with the ambient set's diagnostics."""

    orbits: tuple[OrbitDatum, ...]
    diagnostics: tuple[str, ...] = ()


def assemble_basic_set(spec: CycloSpec, l: int, n: int) -> BasicSet:
    """All multipartitions whose class projections are crystal-reachable."""
    if is_semisimple(spec, l, n):
        return BasicSet(enumerate_multipartitions(l, n), spec, l, n)
    dm = dm_partition(spec, l, n)
    charges = [charge_for(dm, i, spec) for i in range(len(dm.classes))]
    diagnostics = tuple(
        f"class {dm.classes[i]}: {d}"
        for i, ch in enumerate(charges)
        if not ch.eq4_exact
        for d in ch.diagnostics
    )
    levels = [uglov_levels(len(cls), n, ch) for cls, ch in zip(dm.classes, charges)]

    # Partitions for a (class, rank) layer, built once, when first combined.
    built: dict[tuple[int, int], list[tuple[Partition, ...]]] = {}
    elements: list[Multipartition] = []
    expected = 0
    for comp_sizes in compositions(n, len(dm.classes)):
        pools = []
        for i, ni in enumerate(comp_sizes):
            if (i, ni) not in built:
                built[i, ni] = [tuple(map(Partition, x)) for x in levels[i][ni]]
            pools.append(built[i, ni])
        expected += math.prod(map(len, pools))
        for choice in itertools.product(*pools):
            comps: list[Partition | None] = [None] * l
            for cls, local in zip(dm.classes, choice):
                for idx, part in zip(cls, local):
                    comps[idx] = part
            elements.append(Multipartition(tuple(comps)))  # type: ignore[arg-type]
    if not len(set(elements)) == len(elements) == expected:
        raise InternalError(
            f"assembled {len(elements)} elements ({len(set(elements))} distinct), expected {expected}"
        )
    elements.sort(key=canonical_key)
    return BasicSet(tuple(elements), spec, l, n, diagnostics)


def assemble_basic_set_gpn(spec: CycloSpec, l: int, p: int, n: int) -> OrbitLabelling:
    """Rotation-orbit labelling of the basic set for G(l,p,n).

    The charges of `spec` may be given as the d-block (d = l/p) or as the
    full p-periodic l-vector; the ambient G(l,1,n) parameters use p*r and
    the tiled charges.  The ambient set's diagnostics come with the orbits.
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

    element_set = set(bs.elements)
    if any(sigma_action(x, p, d) not in element_set for x in bs.elements):
        # Happens only when no integer charge lift satisfies the exact
        # rational charge relation, so the pinned lift convention breaks
        # the rotation symmetry; orbit labelling is then undefined.
        detail = "; ".join(bs.diagnostics) or "no diagnostics recorded"
        raise DomainError(
            "the assembled set is not stable under component rotation, "
            f"so no orbit labelling exists under the chosen charge lifts ({detail})"
        )

    remaining = set(bs.elements)
    data: list[OrbitDatum] = []
    while remaining:
        orbit, stab = orbit_and_stabilizer(next(iter(remaining)), p, d)
        remaining.difference_update(orbit)
        rep = orbit[0]
        base = "E^" + multipartition_to_json(rep)
        labels = (base,) if stab == 1 else tuple(f"{base},{i}" for i in range(stab))
        data.append(OrbitDatum(rep, len(orbit), stab, labels))
    data.sort(key=lambda o: canonical_key(o.representative))
    if sum(o.orbit_size for o in data) != len(bs.elements):
        raise InternalError("the rotation orbits do not partition the basic set")
    return OrbitLabelling(tuple(data), bs.diagnostics)
