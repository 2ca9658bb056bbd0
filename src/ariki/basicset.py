"""Canonical basic sets.

The pipeline: split the parameter indices 0..l-1 into classes with no
cross-class root-of-unity coincidence, extract an integer charge vector
per class, build the class-local label sets as the vertices reachable
from the empty multipartition in a Fock-space crystal, then reassemble
over all ways of distributing the rank.  For G(l,p,n) the resulting set
is grouped into orbits of the cyclic component rotation.

The crystal convention is pinned once and for all here:

* a node in row i, column j of component c has residue
  (j - i + s_c) mod e';
* addable and removable nodes of the chosen residue are read in order of
  strictly decreasing gamma = j - i + s_c, ties broken by increasing
  component index;
* adjacent addable-before-removable pairs cancel repeatedly;
* the good node is the earliest surviving addable one.
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
    partitions_of,
    sigma_action,
)
from .errors import DomainError
from .schur import CycloSpec, is_semisimple


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


def _witness_exists(spec: CycloSpec, l: int, n: int, i: int, j: int) -> bool:
    # eta^(r d) == zeta_l^(i-j) eta^(r_i - r_j) for some -n < d < n,
    # stated as an integer congruence mod l*e.
    m_mod = l * spec.e
    base = (i - j) * spec.e + spec.k * l * (spec.charges[i] - spec.charges[j])
    for d in range(-n + 1, n):
        if (base - spec.k * l * spec.r * d) % m_mod == 0:
            return True
    return False


def _solve_s(spec: CycloSpec, l: int, anchor: int, idx: int) -> int:
    """Minimal-|s| solution of k*l*r*s == (idx-anchor)*e + k*l*(r_idx - r_anchor) mod l*e."""
    m_mod = l * spec.e
    c = ((idx - anchor) * spec.e + spec.k * l * (spec.charges[idx] - spec.charges[anchor])) % m_mod
    a = spec.k * l * spec.r
    g = math.gcd(a, m_mod)
    if c % g != 0:
        raise AssertionError("unsolvable charge congruence inside a connected class")
    period = m_mod // g
    s0 = ((c // g) * pow(a // g, -1, period)) % period if period > 1 else 0
    alt = s0 - period
    if abs(alt) < abs(s0) or (abs(alt) == abs(s0) and alt > 0):
        return alt
    return s0


def dm_partition(spec: CycloSpec, l: int, n: int) -> DMPartition:
    """Connected components of the coincidence graph, ordered by least element."""
    if spec.mode != "cyclotomic":
        raise DomainError("the splitting is defined for cyclotomic-mode parameters")
    if spec.level != l:
        raise DomainError(f"specialisation has {spec.level} charges, expected {l}")
    adj = {i: set() for i in range(l)}
    for i in range(l):
        for j in range(i + 1, l):
            if _witness_exists(spec, l, n, i, j):
                adj[i].add(j)
                adj[j].add(i)
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for start in range(l):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        classes.append(tuple(sorted(comp)))
    classes.sort(key=lambda c: c[0])

    # Independent re-check of the defining property: no cross-class witness.
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            for i in classes[a]:
                for j in classes[b]:
                    assert not _witness_exists(spec, l, n, i, j), "cross-class witness"

    e_prime = spec.e // math.gcd(spec.e, spec.r)
    s_vectors = tuple(
        tuple(_solve_s(spec, l, cls[0], idx) for idx in cls) for cls in classes
    )
    m = spec.charge_data().m
    m_residual = tuple(tuple(m[idx] for idx in cls) for cls in classes)
    return DMPartition(tuple(classes), s_vectors, m_residual, e_prime)


def charge_for(dm: DMPartition, class_index: int, spec: CycloSpec) -> UglovCharge:
    """Package the charge vector of one class, with its congruence diagnostics."""
    cls = dm.classes[class_index]
    s = dm.s_vectors[class_index]
    l = spec.level
    m_mod = l * spec.e
    # Substitution check: each s_j really solves its congruence.
    for idx, sj in zip(cls, s):
        c = ((idx - cls[0]) * spec.e + spec.k * l * (spec.charges[idx] - spec.charges[cls[0]])) % m_mod
        assert (spec.k * l * spec.r * sj - c) % m_mod == 0
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


def _addable_nodes(p: Partition):
    parts = p.parts
    if not parts:
        yield (1, 1)
        return
    yield (1, parts[0] + 1)
    for i in range(2, len(parts) + 1):
        if parts[i - 2] > parts[i - 1]:
            yield (i, parts[i - 1] + 1)
    yield (len(parts) + 1, 1)


def _removable_nodes(p: Partition):
    parts = p.parts
    for i in range(1, len(parts) + 1):
        if parts[i - 1] > (parts[i] if i < len(parts) else 0):
            yield (i, parts[i - 1])


def _add_node(m: Multipartition, comp: int, row: int) -> Multipartition:
    parts = list(m.components[comp].parts)
    if row == len(parts) + 1:
        parts.append(1)
    else:
        parts[row - 1] += 1
    comps = list(m.components)
    comps[comp] = Partition(tuple(parts))
    return Multipartition(tuple(comps))


def f_tilde(m: Multipartition, t: int, charge: UglovCharge) -> Multipartition | None:
    """Add the good node of residue t, or return None when there is none."""
    ep = charge.e_prime
    if m.level != len(charge.s):
        raise DomainError(f"charge has {len(charge.s)} entries for level {m.level}")
    word = []  # (gamma, component, kind 0=addable 1=removable, row)
    for c, (comp, sc) in enumerate(zip(m.components, charge.s)):
        for (i, j) in _addable_nodes(comp):
            g = j - i + sc
            if (g - t) % ep == 0:
                word.append((g, c, 0, i))
        for (i, j) in _removable_nodes(comp):
            g = j - i + sc
            if (g - t) % ep == 0:
                word.append((g, c, 1, i))
    word.sort(key=lambda x: (-x[0], x[1]))
    stack: list[tuple[int, int, int, int]] = []
    for entry in word:
        if entry[2] == 0:
            stack.append(entry)
        elif stack:
            stack.pop()
    if not stack:
        return None
    _, c, _, row = stack[0]
    return _add_node(m, c, row)


def uglov_levels(lc: int, n_max: int, charge: UglovCharge) -> list[tuple[Multipartition, ...]]:
    """Reachable multipartitions at every rank 0..n_max, canonically sorted."""
    if lc < 1 or n_max < 0:
        raise DomainError("need lc >= 1 and n_max >= 0")
    if len(charge.s) != lc:
        raise DomainError(f"charge has {len(charge.s)} entries for level {lc}")
    empty = Multipartition((Partition(),) * lc)
    if charge.e_prime < 1:
        raise DomainError("quantum characteristic must be >= 1")
    if charge.e_prime == 1:
        # eta^r = 1: the component algebra is semisimple only in the
        # level-1 (or rank-0) situation, where every label survives.
        if lc == 1:
            return [
                tuple(Multipartition((p,)) for p in partitions_of(k))
                for k in range(n_max + 1)
            ]
        if n_max == 0:
            return [(empty,)]
        raise DomainError(
            "quantum characteristic 1 with a level >= 2 class: "
            "the component algebra is not semisimple and no crystal applies"
        )
    levels = [(empty,)]
    frontier = {empty}
    for _ in range(n_max):
        nxt: set[Multipartition] = set()
        for x in frontier:
            for t in range(charge.e_prime):
                y = f_tilde(x, t, charge)
                if y is not None:
                    assert y.rank == x.rank + 1
                    nxt.add(y)
        frontier = nxt
        levels.append(tuple(sorted(frontier, key=canonical_key)))
    return levels


def uglov_multipartitions(lc: int, nc: int, charge: UglovCharge) -> tuple[Multipartition, ...]:
    """The rank-nc layer of the crystal component of the empty multipartition."""
    return uglov_levels(lc, nc, charge)[nc]


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
        assert len(self.labels) == self.stabilizer_size


def assemble_basic_set(spec: CycloSpec, l: int, n: int) -> BasicSet:
    """All multipartitions whose class projections are crystal-reachable."""
    if spec.mode != "cyclotomic":
        raise DomainError("basic sets are assembled from cyclotomic-mode parameters")
    if spec.level != l:
        raise DomainError(f"specialisation has {spec.level} charges, expected {l}")
    if n == 0 or is_semisimple(spec, l, n):
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

    elements: list[Multipartition] = []
    expected = 0
    for comp_sizes in compositions(n, len(dm.classes)):
        pools = [levels[i][ni] for i, ni in enumerate(comp_sizes)]
        count = 1
        for pool in pools:
            count *= len(pool)
        expected += count
        for choice in itertools.product(*pools):
            comps: list[Partition | None] = [None] * l
            for cls, local in zip(dm.classes, choice):
                for idx, part in zip(cls, local.components):
                    comps[idx] = part
            elements.append(Multipartition(tuple(comps)))  # type: ignore[arg-type]
    assert len(set(elements)) == len(elements) == expected
    elements.sort(key=canonical_key)
    return BasicSet(tuple(elements), spec, l, n, diagnostics)


def assemble_basic_set_gpn(spec: CycloSpec, l: int, p: int, n: int) -> tuple[OrbitDatum, ...]:
    """Rotation-orbit labelling of the basic set for G(l,p,n).

    The charges of `spec` may be given as the d-block (d = l/p) or as the
    full p-periodic l-vector; the ambient G(l,1,n) parameters use p*r and
    the tiled charges.
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
    ambient = CycloSpec(spec.e, spec.k, spec.r * p, block * p, "cyclotomic")
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
    assert sum(o.orbit_size for o in data) == len(bs.elements)
    return tuple(data)
