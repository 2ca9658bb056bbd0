import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_round0_digest import workloads
from weyl_kac import basic_set_size, layer_counts

from ariki import basicset, cli, combinatorics
from ariki.basicset import (
    UglovCharge,
    _crystal_walk,
    assemble_basic_set,
    assemble_basic_set_gpn,
    charge_for,
    dm_partition,
    f_tilde,
    uglov_levels,
    uglov_multipartitions,
)
from ariki.combinatorics import (
    Multipartition,
    Partition,
    canonical_key,
    compositions,
    enumerate_multipartitions,
    mp,
    multipartition_to_json,
    sigma_action,
)
from ariki.errors import DomainError
from ariki.schur import CycloSpec, is_semisimple, spec_map_for, zeta_exponents

SPEC_312 = CycloSpec(e=12, k=1, r=6, charges=(3, -1, -2))


def jset(elements):
    return {multipartition_to_json(x) for x in elements}


def as_multipartitions(levels):
    """`uglov_levels`' layers of bare part tuples as canonically sorted Multipartitions."""
    return [
        tuple(sorted((Multipartition(tuple(map(Partition, x))) for x in layer), key=canonical_key))
        for layer in levels
    ]


def canonical_layers(levels):
    """Each layer of bare part tuples, in the canonical order of its Multipartitions."""
    return [
        tuple(sorted(layer, key=lambda x: canonical_key(Multipartition(tuple(map(Partition, x))))))
        for layer in levels
    ]


class TestDMPartition:
    def test_worked_example(self):
        dm = dm_partition(SPEC_312, 3, 2)
        assert dm.classes == ((0, 1), (2,))
        assert dm.e_prime == 2
        assert [charge_for(dm, i, SPEC_312).s for i in range(2)] == [(0, 0), (0,)]

    def test_periodic_zero_charges(self):
        spec = CycloSpec(e=12, k=1, r=6, charges=(0, 0, 0))
        dm = dm_partition(spec, 3, 2)
        assert dm.classes == ((0,), (1,), (2,))
        assert [charge_for(dm, i, spec).s for i in range(3)] == [(0,), (0,), (0,)]

    def test_huge_order_gives_singletons(self):
        spec = CycloSpec(e=101, k=1, r=1, charges=(0, 5, -3))
        dm = dm_partition(spec, 3, 3)
        assert dm.classes == ((0,), (1,), (2,))

    def test_charge_for_checks_and_diagnostics(self):
        dm = dm_partition(SPEC_312, 3, 2)
        ch = charge_for(dm, 0, SPEC_312)
        assert ch.s == (0, 0)
        assert ch.e_prime == 2
        assert ch.eq4_exact
        assert any("modulo" in d for d in ch.diagnostics)


def _congruence_rhs(spec, l, i, j):
    """(i - j)*e + k*l*(r_i - r_j): the angle of zeta_l^(i-j) eta^(r_i - r_j) in units of 2*pi/(l*e)."""
    return (i - j) * spec.e + spec.k * l * (spec.charges[i] - spec.charges[j])


def _reference_dm(spec, l, n):
    """Classes, s-vectors and e' as integer congruences mod l*e, not as zeta_N exponents.

    i and j are joined when k*l*r*d == rhs(i, j) mod l*e for some -n < d < n,
    and s_j is the least-|s| solution (ties positive) of k*l*r*s == rhs(j,
    anchor) mod l*e, found by search rather than by a modular inverse.
    """
    m_mod, step = l * spec.e, spec.k * l * spec.r
    root = list(range(l))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in itertools.combinations(range(l), 2):
        if any((_congruence_rhs(spec, l, i, j) - step * d) % m_mod == 0 for d in range(-n + 1, n)):
            root[find(j)] = find(i)
    classes = sorted({tuple(j for j in range(l) if find(j) == find(i)) for i in range(l)})
    candidates = sorted(range(-spec.e, spec.e + 1), key=lambda s: (abs(s), -s))
    s_vectors = tuple(
        tuple(
            next(s for s in candidates if (step * s - _congruence_rhs(spec, l, j, cls[0])) % m_mod == 0)
            for j in cls
        )
        for cls in classes
    )
    return tuple(classes), s_vectors, m_mod // math.gcd(step, m_mod)


class TestZetaExponents:
    def test_matches_the_congruences_mod_l_e(self):
        # The zeta_N exponents, and the classes and charges read from them,
        # against the same conditions stated mod l*e.
        rng = random.Random(20261019)
        for _ in range(3000):
            l, e, r, n = rng.randint(1, 6), rng.randint(2, 30), rng.randint(1, 7), rng.randint(1, 6)
            k = rng.choice([k for k in range(1, e) if math.gcd(k, e) == 1])
            spec = CycloSpec(e, k, r, tuple(rng.randint(-8, 8) for _ in range(l)))
            theta = spec_map_for(spec, l)
            scale = l * e // theta.n
            assert theta.q_image[0] * scale % (l * e) == k * l * r % (l * e)
            A = [A_j for A_j, _ in theta.Q_images]
            for j in range(l):
                assert (A[j] - A[0]) * scale % (l * e) == _congruence_rhs(spec, l, j, 0) % (l * e)
            dm = dm_partition(spec, l, n)
            classes, s_vectors, e_prime = _reference_dm(spec, l, n)
            assert (dm.classes, dm.e_prime) == (classes, e_prime), spec
            assert tuple(charge_for(dm, i, spec).s for i in range(len(classes))) == s_vectors, spec


class TestCrystal:
    def test_good_node_tie_goes_to_first_component(self):
        charge = UglovCharge(2, (0, 0))
        start = mp([], [])
        assert f_tilde(start, 0, charge) == mp([1], [])
        assert f_tilde(start, 1, charge) is None

    def test_removable_blocks_addable_on_lower_component(self):
        charge = UglovCharge(2, (0, 0))
        assert f_tilde(mp([1], []), 0, charge) == mp([1], [1])
        assert f_tilde(mp([1], []), 1, charge) == mp([2], [])

    def test_worked_example_layers(self):
        ch1 = UglovCharge(2, (0, 0))
        assert jset(uglov_multipartitions(2, 2, ch1)) == {"[[2],[]]", "[[1],[1]]"}
        assert jset(uglov_multipartitions(2, 1, ch1)) == {"[[1],[]]"}
        ch2 = UglovCharge(2, (0,))
        assert jset(uglov_multipartitions(1, 1, ch2)) == {"[[1]]"}
        assert jset(uglov_multipartitions(1, 2, ch2)) == {"[[2]]"}
        assert jset(uglov_multipartitions(1, 0, ch2)) == {"[[]]"}

    def test_level_one_matches_regular_partitions(self):
        # Classical fact used as an independent oracle for the good-node
        # convention: at level 1 the reachable partitions are exactly the
        # e-regular ones (no part value repeated e or more times), and the
        # set does not depend on the single charge entry.
        from collections import Counter

        from ariki.combinatorics import partitions_of

        for e in (2, 3, 4, 5):
            for n in range(0, 9):
                expected = {
                    p
                    for p in partitions_of(n)
                    if all(c < e for c in Counter(p.parts).values())
                }
                for s in (0, 3):
                    got = {
                        m.components[0]
                        for m in uglov_multipartitions(1, n, UglovCharge(e, (s,)))
                    }
                    assert got == expected

    def test_matches_cylindric_characterization(self):
        # Second independent oracle: for weakly increasing charges inside
        # one period, the reachable multipartitions admit a closed-form
        # description (cylindric row inequalities plus the exclusion of
        # part sizes whose rightmost-node residues cover every class).
        def cylindric(m, s, e):
            comps = m.components
            width = max(c.length for c in comps) + e + 1
            pairs = [(j, j + 1, s[j + 1] - s[j]) for j in range(m.level - 1)]
            pairs.append((m.level - 1, 0, e + s[0] - s[m.level - 1]))
            for a, b, shift in pairs:
                for i in range(1, width + 1):
                    if comps[a].part(i) < comps[b].part(i + shift):
                        return False
            for k in {p for c in comps for p in c.parts}:
                residues = {
                    (k - i + s[j]) % e
                    for j, c in enumerate(comps)
                    for i in range(1, c.length + 1)
                    if c.part(i) == k
                }
                if len(residues) == e:
                    return False
            return True

        grid = [
            (2, (0, 0)), (2, (0, 1)), (3, (0, 0)), (3, (0, 2)), (3, (1, 2)),
            (4, (0, 3)), (4, (2, 2)), (2, (0, 0, 1)), (3, (0, 1, 2)), (4, (0, 0, 3)),
        ]
        for e, s in grid:
            charge = UglovCharge(e, s)
            for n in range(0, 6):
                got = set(uglov_multipartitions(len(s), n, charge))
                expected = {
                    m for m in enumerate_multipartitions(len(s), n) if cylindric(m, s, e)
                }
                assert got == expected, (e, s, n)

    def test_level_one_large_characteristic_gives_all(self):
        charge = UglovCharge(7, (0,))
        for n in range(0, 5):
            assert len(uglov_multipartitions(1, n, charge)) == len(enumerate_multipartitions(1, n))

    def test_levels_are_nested_one_node_apart(self):
        charge = UglovCharge(3, (1, -1))
        levels = as_multipartitions(uglov_levels(2, 4, charge))
        for rank, layer in enumerate(levels):
            for lam in layer:
                assert lam.rank == rank
            assert len(set(layer)) == len(layer)
        # every element extends something one rank down
        for rank in range(1, 5):
            prev = set(levels[rank - 1])
            for lam in levels[rank]:
                parents = 0
                for t in range(charge.e_prime):
                    for parent in prev:
                        if f_tilde(parent, t, charge) == lam:
                            parents += 1
                assert parents >= 1

    def test_degenerate_characteristic(self):
        assert jset(uglov_multipartitions(1, 2, UglovCharge(1, (0,)))) == {"[[2]]", "[[1,1]]"}
        # e' = 1 at level 1: every partition survives, with no multiplicity bound.
        from ariki.combinatorics import partitions_of

        levels = uglov_levels(1, 10, UglovCharge(1, (0,)))
        assert levels == [tuple((p.parts,) for p in partitions_of(n)) for n in range(11)]
        assert list(map(set, levels)) == [{(p.parts,) for p in partitions_of(n)} for n in range(11)]
        # e' = 1 at level 2: only rank 0, from the FLOTW generator at the
        # cylindric (0, 0) and from the walk at (0, 3).
        for s in ((0, 0), (0, 3)):
            assert jset(uglov_multipartitions(2, 0, UglovCharge(1, s))) == {"[[],[]]"}
            with pytest.raises(DomainError):
                uglov_multipartitions(2, 1, UglovCharge(1, s))


def _reference_addable(parts):
    if not parts:
        yield (1, 1)
        return
    yield (1, parts[0] + 1)
    for i in range(2, len(parts) + 1):
        if parts[i - 2] > parts[i - 1]:
            yield (i, parts[i - 1] + 1)
    yield (len(parts) + 1, 1)


def _reference_removable(parts):
    for i in range(1, len(parts) + 1):
        if parts[i - 1] > (parts[i] if i < len(parts) else 0):
            yield (i, parts[i - 1])


def _reference_f_tilde(m, t, charge):
    """The crystal operator as one scan per residue, kept as the oracle for
    `f_tilde` and `uglov_levels`, which read every residue in one pass."""
    ep = charge.e_prime
    word = []  # (gamma, component, kind 0=addable 1=removable, row)
    for c, (comp, sc) in enumerate(zip(m.components, charge.s)):
        for (i, j) in _reference_addable(comp.parts):
            g = j - i + sc
            if (g - t) % ep == 0:
                word.append((g, c, 0, i))
        for (i, j) in _reference_removable(comp.parts):
            g = j - i + sc
            if (g - t) % ep == 0:
                word.append((g, c, 1, i))
    word.sort(key=lambda x: (-x[0], x[1]))
    stack = []
    for entry in word:
        if entry[2] == 0:
            stack.append(entry)
        elif stack:
            stack.pop()
    if not stack:
        return None
    _, c, _, row = stack[0]
    parts = list(m.components[c].parts)
    if row == len(parts) + 1:
        parts.append(1)
    else:
        parts[row - 1] += 1
    comps = list(m.components)
    comps[c] = Partition(tuple(parts))
    return Multipartition(tuple(comps))


def _reference_levels(lc, n_max, charge):
    levels = [(Multipartition((Partition(),) * lc),)]
    for _ in range(n_max):
        nxt = {
            y
            for x in levels[-1]
            for t in range(charge.e_prime)
            if (y := _reference_f_tilde(x, t, charge)) is not None
        }
        levels.append(tuple(sorted(nxt, key=canonical_key)))
    return levels


def _reference_assembly(spec, l, n):
    """The basic set combined from `_reference_levels`, one class projection at a time."""
    dm = dm_partition(spec, l, n)
    levels = [
        _reference_levels(len(cls), n, charge_for(dm, i, spec)) for i, cls in enumerate(dm.classes)
    ]
    elements = []
    for sizes in compositions(n, len(dm.classes)):
        for choice in itertools.product(*(levels[i][ni] for i, ni in enumerate(sizes))):
            comps = [None] * l
            for cls, local in zip(dm.classes, choice):
                for idx, part in zip(cls, local.components):
                    comps[idx] = part
            elements.append(Multipartition(tuple(comps)))
    return tuple(sorted(elements, key=canonical_key))


def _build_then_sort(spec, l, n):
    """The basic set from `uglov_levels`, built over every composition of n, then sorted."""
    dm = dm_partition(spec, l, n)
    levels = [uglov_levels(len(cls), n, charge_for(dm, i, spec)) for i, cls in enumerate(dm.classes)]
    elements = []
    for sizes in compositions(n, len(dm.classes)):
        for choice in itertools.product(*(levels[i][k] for i, k in enumerate(sizes))):
            comps = [None] * l
            for cls, local in zip(dm.classes, choice):
                for idx, parts in zip(cls, local):
                    comps[idx] = Partition(parts)
            elements.append(Multipartition(tuple(comps)))
    return tuple(sorted(elements, key=canonical_key))


@st.composite
def crystal_cases(draw):
    lc = draw(st.integers(1, 3))
    ep = draw(st.integers(2, 12))
    s = tuple(draw(st.lists(st.integers(-6, 6), min_size=lc, max_size=lc)))
    n = draw(st.integers(0, 12 if lc == 1 else 6))
    return lc, n, UglovCharge(ep, s)


class TestOnePassCrystal:
    # The examples are small cases on which a dropped cancellation, a
    # reversed tie-break or the last surviving addable node shows.
    @given(crystal_cases())
    @example((1, 4, UglovCharge(2, (0,))))
    @example((2, 3, UglovCharge(2, (0, 0))))
    @settings(max_examples=200, deadline=None)
    def test_levels_match_the_per_residue_scan(self, case):
        lc, n, charge = case
        assert as_multipartitions(uglov_levels(lc, n, charge)) == _reference_levels(lc, n, charge)

    @given(crystal_cases())
    @example((1, 4, UglovCharge(2, (0,))))
    @example((2, 3, UglovCharge(2, (0, 0))))
    @settings(max_examples=100, deadline=None)
    def test_f_tilde_reads_the_residue_mod_e_prime(self, case):
        lc, n, charge = case
        ep = charge.e_prime
        for layer in _reference_levels(lc, n, charge):
            for x in layer:
                for t in range(-ep, 2 * ep):
                    assert f_tilde(x, t, charge) == _reference_f_tilde(x, t, charge), (x, t)


def benchmark_round(seed):
    """The ops of round 0 of the benchmark's basicset workload at `seed`."""
    return workloads.round_ops("basicset", seed, 0)


def is_cylindric(s, ep):
    return all(a <= b for a, b in zip(s, s[1:])) and s[-1] - s[0] < ep


class TestLevelOneGenerator:
    """Level-1 layers are generated as e'-regular partitions; the crystal walk is their oracle."""

    @pytest.mark.parametrize("ep", range(2, 13))
    def test_matches_the_walk_up_to_rank_20(self, ep):
        for s in (0, -3):
            charge = UglovCharge(ep, (s,))
            levels, walk = uglov_levels(1, 20, charge), _crystal_walk(1, 20, charge)
            assert levels == canonical_layers(walk)
            assert list(map(set, levels)) == walk

    @pytest.mark.parametrize("n, ep", [(28, 8), (27, 6), (23, 12), (26, 4), (22, 8)])
    def test_matches_the_walk_on_large_ranks(self, n, ep):
        charge = UglovCharge(ep, (1,))
        levels, walk = uglov_levels(1, n, charge), _crystal_walk(1, n, charge)
        assert levels == canonical_layers(walk)
        assert list(map(set, levels)) == walk

    def test_walks_no_crystal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a level-1 layer walked the crystal")

        monkeypatch.setattr(basicset, "_good_nodes", refuse)
        for ep in (1, 2, 5):
            assert len(uglov_levels(1, 12, UglovCharge(ep, (0,)))) == 13
        # Cylindric charges of level >= 2 are generated too; other charges walk.
        assert list(map(set, uglov_levels(2, 1, UglovCharge(2, (0, 0))))) == [{((), ())}, {((1,), ())}]
        with pytest.raises(AssertionError, match="walked"):
            uglov_levels(2, 1, UglovCharge(2, (0, -1)))

    def test_good_node_calls_on_the_benchmark_round(self, monkeypatch, capsys):
        # Every op of round 0 of the benchmark's basicset workload (seed 0),
        # counting the good-node readings that the crystal walk makes.  Only
        # classes of level >= 2 with a charge that is not cylindric walk.  The
        # walk made 49,247 readings when level-1 classes were walked too
        # (40,231 of them in level-1 ops), and 7,571 when cylindric classes
        # were walked too.
        honest, calls = basicset._good_nodes, Counter()

        def counting(*args):
            calls[level] += 1
            return honest(*args)

        monkeypatch.setattr(basicset, "_good_nodes", counting)
        for op in benchmark_round(0):
            level = op["argv"][1]
            assert cli.main(op["argv"]) == 0
        capsys.readouterr()
        assert calls["--l=1"] == 0
        assert sum(calls.values()) == 1759


@st.composite
def cylindric_cases(draw):
    """(lc, n, charge): level 2-4, e' 2-12, s weakly increasing with s[-1] - s[0] < e'."""
    lc = draw(st.integers(2, 4))
    ep = draw(st.integers(2, 12))
    base = draw(st.integers(-6, 6))
    steps = draw(st.lists(st.integers(0, ep - 1), min_size=lc - 1, max_size=lc - 1))
    n = draw(st.integers(0, 9))
    return lc, n, UglovCharge(ep, (base, *(base + d for d in sorted(steps))))


class TestFlotwGenerator:
    """Cylindric classes of level >= 2 are generated; the crystal walk is their oracle."""

    @staticmethod
    def assert_matches_the_walk(lc, n, charge):
        walk = _crystal_walk(lc, n, charge)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(basicset, "_good_nodes", None)
            levels = uglov_levels(lc, n, charge)
        assert list(map(set, levels)) == walk
        assert levels == canonical_layers(walk)

    # The examples: the widest charge spread, a spread of 0, and e' = 2,
    # where every component is a strict partition.
    @given(cylindric_cases())
    @example((3, 6, UglovCharge(4, (0, 1, 3))))
    @example((4, 6, UglovCharge(5, (2, 2, 2, 2))))
    @example((2, 9, UglovCharge(2, (0, 1))))
    @settings(max_examples=80, deadline=None)
    def test_layers_match_the_walk(self, case):
        self.assert_matches_the_walk(*case)

    def test_matches_the_walk_on_the_benchmark_classes(self, monkeypatch, capsys):
        # The cylindric classes of level >= 2 that round 0 of the benchmark
        # builds at seeds 0 and 7919, 11 at each, with n up to 14.
        honest, classes = basicset.uglov_levels, []

        def recording(lc, n_max, charge):
            classes.append((lc, n_max, charge))
            return honest(lc, n_max, charge)

        monkeypatch.setattr(basicset, "uglov_levels", recording)
        for seed in (0, 7919):
            for op in benchmark_round(seed):
                assert cli.main(op["argv"]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        cylindric = [case for case in classes if case[0] >= 2 and is_cylindric(case[2].s, case[2].e_prime)]
        assert (len(cylindric), max(n for _, n, _ in cylindric)) == (22, 14)
        for case in cylindric:
            self.assert_matches_the_walk(*case)


@st.composite
def non_semisimple_specs(draw):
    """(spec, l, n) with l <= 3, n <= 6, e' >= 2 and a non-semisimple algebra."""
    l = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    e = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 12)))
    k = draw(st.sampled_from([x for x in range(1, e) if math.gcd(x, e) == 1]))
    r = draw(st.integers(1, 4))
    charges = tuple(draw(st.lists(st.integers(-5, 5), min_size=l, max_size=l)))
    spec = CycloSpec(e=e, k=k, r=r, charges=charges)
    assume(e // math.gcd(e, r) >= 2 and not is_semisimple(spec, l, n))
    return spec, l, n


class TestAssembleBasicSet:
    # The examples split into two and three classes of indices.
    @given(non_semisimple_specs())
    @example((SPEC_312, 3, 2))
    @example((CycloSpec(e=12, k=1, r=2, charges=(0, -3, -2)), 3, 6))
    @example((CycloSpec(e=4, k=1, r=1, charges=(0, -3, -3)), 3, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_assembly(self, case):
        spec, l, n = case
        assert assemble_basic_set(spec, l, n).elements == _reference_assembly(spec, l, n)

    @given(non_semisimple_specs())
    @example((CycloSpec(e=4, k=1, r=1, charges=(0, -3, -3)), 3, 5))
    @settings(max_examples=100, deadline=None)
    def test_emits_the_order_of_build_then_sort(self, case):
        assert assemble_basic_set(*case).elements == _build_then_sort(*case)

    def test_interleaved_classes_are_sorted(self):
        # Class-key order puts component 1 last here; canonical order does not.
        spec, l, n = CycloSpec(e=12, k=1, r=2, charges=(0, -3, -2)), 3, 6
        assert dm_partition(spec, l, n).classes == ((0, 2), (1,))
        elements = assemble_basic_set(spec, l, n).elements
        assert elements == _build_then_sort(spec, l, n)
        assert list(elements) == sorted(elements, key=canonical_key)

    def test_validates_each_part_tuple_once(self, monkeypatch):
        # A count, not a time, on one class of level 2: its 118 elements have
        # 236 components but only 65 distinct part tuples.
        built = Counter()
        for cls in (Partition, Multipartition):
            def counting(self, original=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        bs = assemble_basic_set(CycloSpec(e=8, k=5, r=3, charges=(1, 0)), 2, 8)
        distinct = {c.parts for x in bs.elements for c in x.components}
        assert (len(bs.elements), len(distinct)) == (118, 65)
        assert built == {"Partition": len(distinct), "Multipartition": len(bs.elements)}

    def test_builds_only_the_objects_it_returns(self, monkeypatch):
        # A count, not a time: the crystal walk builds no Partition or
        # Multipartition, and the assembly one of each per element at level 1.
        built = Counter()
        for cls in (Partition, Multipartition):
            def counting(self, original=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        bs = assemble_basic_set(CycloSpec(e=4, k=1, r=1, charges=(0,)), 1, 20)
        assert len(bs.elements) > 100
        assert built == {"Partition": len(bs.elements), "Multipartition": len(bs.elements)}

    def test_worked_example(self):
        bs = assemble_basic_set(SPEC_312, 3, 2)
        assert jset(bs.elements) == {
            "[[2],[],[]]",
            "[[1],[1],[]]",
            "[[1],[],[1]]",
            "[[],[],[2]]",
        }

    def test_rank_zero(self):
        bs = assemble_basic_set(SPEC_312, 3, 0)
        assert jset(bs.elements) == {"[[],[],[]]"}

    def test_worked_example_a_values(self):
        # frozen from the three mutually agreeing a-value routes
        from ariki.combinatorics import ChargeData, a_value_combinatorial

        charge = ChargeData(6, (3, -1, -2))
        expected = {
            "[[2],[],[]]": 0,
            "[[1],[1],[]]": 6,
            "[[1],[],[1]]": 7,
            "[[],[],[2]]": 6,
        }
        bs = assemble_basic_set(SPEC_312, 3, 2)
        got = {multipartition_to_json(x): a_value_combinatorial(x, charge) for x in bs.elements}
        assert got == expected

    def test_semisimple_gives_everything(self):
        spec = CycloSpec(e=101, k=1, r=1, charges=(0, 5, -3))
        assert is_semisimple(spec, 3, 3)
        bs = assemble_basic_set(spec, 3, 3)
        assert bs.elements == enumerate_multipartitions(3, 3)

    def test_size_matches_composition_sum(self):
        spec = CycloSpec(e=4, k=1, r=1, charges=(0, 1))
        bs = assemble_basic_set(spec, 2, 3)
        assert len(set(bs.elements)) == len(bs.elements)
        assert all(x.rank == 3 and x.level == 2 for x in bs.elements)

    # Every (spec, l, n) the tests in this file assemble with n > 0,
    # including the G(l,1,n) ambients of the G(l,p,n) tests.
    @pytest.mark.parametrize(
        "spec, l, n",
        [
            (SPEC_312, 3, 2),
            (CycloSpec(e=101, k=1, r=1, charges=(0, 5, -3)), 3, 3),
            (CycloSpec(e=4, k=1, r=1, charges=(0, 1)), 2, 3),
            (CycloSpec(e=12, k=1, r=6, charges=(0, 0, 0)), 3, 2),
            (CycloSpec(e=8, k=3, r=6, charges=(5, -5, 5, -5)), 4, 3),
        ],
    )
    def test_semisimplicity_matches_schur_scan(self, schur_scan, spec, l, n):
        assert is_semisimple(spec, l, n) == schur_scan(spec, l, n)


@st.composite
def weyl_kac_classes(draw):
    lc = draw(st.integers(1, 4))
    s = tuple(draw(st.lists(st.integers(-6, 6), min_size=lc, max_size=lc)))
    return lc, draw(st.integers(0, 8)), UglovCharge(draw(st.integers(2, 7)), s)


@st.composite
def any_specs(draw):
    """(spec, l, n), semisimple or not, with e' = 1 allowed."""
    l = draw(st.integers(1, 4))
    e = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 12)))
    k = draw(st.sampled_from([x for x in range(1, e) if math.gcd(x, e) == 1]))
    charges = tuple(draw(st.lists(st.integers(-5, 5), min_size=l, max_size=l)))
    return CycloSpec(e=e, k=k, r=draw(st.integers(1, 4)), charges=charges), l, draw(st.integers(0, 6))


class TestWeylKacCounts:
    """Every count equals the principally specialised character's (tests/weyl_kac.py).

    The character reads the residues alone, so these hold for any lift of
    the charges and any order of the components.
    """

    @given(weyl_kac_classes())
    @example((2, 6, UglovCharge(2, (0, 3))))
    @example((3, 5, UglovCharge(3, (4, -2, 0))))
    @settings(max_examples=300, deadline=None)
    def test_layer_sizes(self, case):
        lc, n, charge = case
        assert [len(x) for x in uglov_levels(lc, n, charge)] == layer_counts(charge.e_prime, charge.s, n)

    # The examples: a class of level 2 beside one of level 1, interleaved
    # classes, and e' = 1 with two equal parameters.
    @given(any_specs())
    @example((SPEC_312, 3, 4))
    @example((CycloSpec(e=12, k=1, r=2, charges=(0, -3, -2)), 3, 6))
    @example((CycloSpec(e=4, k=1, r=4, charges=(1, 3)), 2, 2))
    @settings(max_examples=300, deadline=None)
    def test_basic_set_sizes(self, case):
        spec, l, n = case
        N, a, _ = zeta_exponents(spec, l)
        if is_semisimple(spec, l, n):
            expected = sum(1 for _ in enumerate_multipartitions(l, n))
        elif N == math.gcd(a, N):
            # e' = 1, and equal parameters make a class of level >= 2.
            with pytest.raises(DomainError, match="quantum characteristic 1"):
                assemble_basic_set(spec, l, n)
            return
        else:
            expected = basic_set_size(spec, l, n)
        assert len(assemble_basic_set(spec, l, n).elements) == expected


def _set_seeded_labelling(spec, l, p, n):
    """(representative, orbit size, stabilizer size, labels) per rotation orbit.

    Orbits are seeded from a set of the ambient basic set, each is sorted,
    and the orbits are sorted by representative, so the ambient set's order
    plays no part.  A set that rotation does not preserve raises the
    DomainError of `assemble_basic_set_gpn`.
    """
    d = l // p
    ambient = CycloSpec(spec.e, spec.k, spec.r * p, spec.charges[:d] * p)
    bs = assemble_basic_set(ambient, l, n)
    remaining = set(bs.elements)

    def rotate(x):
        return Multipartition(x.components[-d:] + x.components[:-d])

    if any(rotate(x) not in remaining for x in bs.elements):
        detail = "; ".join(bs.diagnostics) or "no diagnostics recorded"
        raise DomainError(
            "the assembled set is not stable under component rotation, "
            f"so no orbit labelling exists under the chosen charge lifts ({detail})"
        )
    orbits = []
    while remaining:
        orbit = [next(iter(remaining))]
        while rotate(orbit[-1]) != orbit[0]:
            orbit.append(rotate(orbit[-1]))
        remaining.difference_update(orbit)
        orbits.append(sorted(orbit, key=canonical_key))
    orbits.sort(key=lambda orbit: canonical_key(orbit[0]))
    labelling = []
    for orbit in orbits:
        stab = p // len(orbit)
        base = "E^" + multipartition_to_json(orbit[0])
        labels = (base,) if stab == 1 else tuple(f"{base},{i}" for i in range(stab))
        labelling.append((orbit[0], len(orbit), stab, labels))
    return labelling


@st.composite
def periodic_specs(draw):
    """(spec, l, p, n) for G(l,p,n): l <= 6, p | l, 3 <= n <= 6 or n = 2 with p odd.

    The charges are the l/p-block; large levels get small ranks so that a
    semisimple ambient set stays small.
    """
    l = draw(st.integers(1, 6))
    p = draw(st.sampled_from([x for x in range(1, l + 1) if l % x == 0]))
    n = draw(st.integers(2 if p % 2 else 3, 6 if l <= 3 else 4))
    e = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 12)))
    k = draw(st.sampled_from([x for x in range(1, e) if math.gcd(x, e) == 1]))
    r = draw(st.integers(1, 3))
    charges = tuple(draw(st.lists(st.integers(-4, 4), min_size=l // p, max_size=l // p)))
    return CycloSpec(e=e, k=k, r=r, charges=charges), l, p, n


class TestGPN:
    def test_worked_example(self, capsys):
        spec = CycloSpec(e=12, k=1, r=2, charges=(0,))
        orbits = assemble_basic_set_gpn(spec, 3, 3, 2).orbits
        assert len(orbits) == 2
        assert {multipartition_to_json(o.representative) for o in orbits} == {
            "[[1],[1],[]]",
            "[[2],[],[]]",
        }
        assert all(o.orbit_size == 3 and o.stabilizer_size == 1 for o in orbits)
        argv = "basicset-gpn --l 3 --p 3 --n 2 --e 12 --k 1 --r 2 --charges 0".split()
        assert cli.main(argv) == 0
        assert [line.split(" labels=")[1] for line in capsys.readouterr().out.splitlines()] == [
            "E^[[2],[],[]]",
            "E^[[1],[1],[]]",
        ]

    def test_ambient_set_before_orbiting(self):
        ambient = CycloSpec(e=12, k=1, r=6, charges=(0, 0, 0))
        bs = assemble_basic_set(ambient, 3, 2)
        assert jset(bs.elements) == {
            "[[1],[1],[]]",
            "[[],[1],[1]]",
            "[[1],[],[1]]",
            "[[2],[],[]]",
            "[[],[2],[]]",
            "[[],[],[2]]",
        }

    def test_p1_matches_basic_set(self):
        spec = CycloSpec(e=4, k=1, r=1, charges=(0, 1))
        orbits = assemble_basic_set_gpn(spec, 2, 1, 3).orbits
        bs = assemble_basic_set(spec, 2, 3)
        assert {o.representative for o in orbits} == set(bs.elements)
        assert all(o.orbit_size == 1 and o.stabilizer_size == 1 for o in orbits)

    def test_accepts_full_periodic_charges(self):
        short = assemble_basic_set_gpn(CycloSpec(e=12, k=1, r=2, charges=(0,)), 3, 3, 2)
        full = assemble_basic_set_gpn(CycloSpec(e=12, k=1, r=2, charges=(0, 0, 0)), 3, 3, 2)
        assert short == full

    def test_labelling_carries_the_ambient_diagnostics(self):
        labelling = assemble_basic_set_gpn(CycloSpec(e=6, k=1, r=1, charges=(-2, 2)), 6, 3, 2)
        ambient = assemble_basic_set(CycloSpec(e=6, k=1, r=3, charges=(-2, 2) * 3), 6, 2)
        assert len(ambient.diagnostics) == 6
        assert labelling.diagnostics == ambient.diagnostics
        assert {o.representative for o in labelling.orbits} <= set(ambient.elements)
        assert assemble_basic_set_gpn(CycloSpec(e=12, k=1, r=2, charges=(0,)), 3, 3, 2).diagnostics == ()

    def test_preconditions(self):
        spec = CycloSpec(e=4, k=1, r=1, charges=(0,))
        with pytest.raises(DomainError, match="divide"):
            assemble_basic_set_gpn(spec, 3, 2, 3)
        with pytest.raises(DomainError, match="n > 2"):
            assemble_basic_set_gpn(CycloSpec(e=4, k=1, r=1, charges=(0,)), 2, 2, 2)
        with pytest.raises(DomainError, match="repeat"):
            assemble_basic_set_gpn(CycloSpec(e=4, k=1, r=1, charges=(0, 1, 0)), 3, 3, 3)
        with pytest.raises(DomainError, match="charges"):
            assemble_basic_set_gpn(CycloSpec(e=4, k=1, r=1, charges=(0, 1)), 3, 3, 3)

    def test_rotation_unstable_lift_is_refused(self):
        # No integer charge lift satisfies the exact charge relation here,
        # and the assembled set is genuinely not rotation-stable: the orbit
        # labelling must refuse rather than emit broken orbits.
        spec = CycloSpec(e=8, k=3, r=3, charges=(5, -5))
        with pytest.raises(DomainError, match="rotation"):
            assemble_basic_set_gpn(spec, 4, 2, 3)
        ambient = CycloSpec(e=8, k=3, r=6, charges=(5, -5, 5, -5))
        bs = assemble_basic_set(ambient, 4, 3)
        assert bs.diagnostics  # the inexact charge relation is surfaced

    def test_orbit_count_identity(self, schur_scan):
        rng = random.Random(5)
        for _ in range(5):
            e = rng.choice([3, 4, 6, 8, 12])
            k = rng.choice([x for x in range(1, e) if __import__("math").gcd(x, e) == 1])
            r = rng.randint(1, 3)
            spec = CycloSpec(e=e, k=k, r=r, charges=(rng.randint(-3, 3),))
            orbits = assemble_basic_set_gpn(spec, 2, 2, 3).orbits
            ambient = CycloSpec(e, k, 2 * r, spec.charges * 2)
            bs = assemble_basic_set(ambient, 2, 3)
            assert is_semisimple(ambient, 2, 3) == schur_scan(ambient, 2, 3)
            assert sum(o.orbit_size for o in orbits) == len(bs.elements)
            assert all(o.orbit_size * o.stabilizer_size == 2 for o in orbits)
            # rotation stability, re-checked here
            elems = set(bs.elements)
            assert {sigma_action(x, 2, 1) for x in elems} == elems

    @given(periodic_specs())
    @example((CycloSpec(e=4, k=1, r=1, charges=(0,)), 4, 4, 4))
    @example((CycloSpec(e=4, k=1, r=1, charges=(0, 1)), 2, 1, 3))
    @example((CycloSpec(e=4, k=1, r=1, charges=(0, 1)), 4, 2, 4))
    @example((CycloSpec(e=8, k=3, r=3, charges=(5, -5)), 4, 2, 3))
    @example((CycloSpec(e=12, k=1, r=2, charges=(0,)), 3, 3, 2))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_set_seeded_labelling(self, case):
        # The examples: stabilisers 1, 2 and 4; p = 1; two rotation-unstable
        # sets; n = 2 with p odd.
        spec, l, p, n = case
        try:
            expected = _set_seeded_labelling(spec, l, p, n)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                assemble_basic_set_gpn(spec, l, p, n)
            assert str(raised.value) == str(exc)
            return
        labelling = assemble_basic_set_gpn(spec, l, p, n)
        got = [(o.representative, o.orbit_size, o.stabilizer_size) for o in labelling.orbits]
        assert got == [orbit[:3] for orbit in expected]

    def test_cli_labels_match_the_set_seeded_labelling(self, capsys):
        # Stabilisers 1, 2 and 4: E^rep once, or E^rep,i for each i below the stabilizer size.
        expected = _set_seeded_labelling(CycloSpec(e=4, k=1, r=1, charges=(0,)), 4, 4, 4)
        assert {stab for _, _, stab, _ in expected} == {1, 2, 4}
        assert cli.main("basicset-gpn --l 4 --p 4 --n 4 --e 4 --k 1 --r 1 --charges 0".split()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [tuple(line.split(" labels=")[1].split(" ")) for line in lines] == [
            labels for _, _, _, labels in expected
        ]

    def test_labels_the_benchmark_round_without_sorting(self, monkeypatch):
        # A count, not a time: with the ambient sets given, labelling the gpn
        # ops of round 0 (seed 0) compares no canonical keys and rotates each
        # element once, to walk its orbit.  Sorting the orbits called
        # canonical_key, and checking stability before labelling rotated each
        # element a second time.  Both bindings of each function are counted.
        ops = [op["params"] for op in benchmark_round(0) if op["kind"] == "gpn"]
        cases = [(CycloSpec(o["e"], o["k"], o["r"], o["charges"]), o["l"], o["p"], o["n"]) for o in ops]
        ambient = {}
        for spec, l, p, n in cases:
            tiled = CycloSpec(spec.e, spec.k, spec.r * p, spec.charges * p)
            ambient[tiled, l, n] = assemble_basic_set(tiled, l, n)
        monkeypatch.setattr(basicset, "assemble_basic_set", lambda *key: ambient[key])
        calls = Counter()
        for module in (basicset, combinatorics):
            for name in ("canonical_key", "sigma_action"):
                if hasattr(module, name):
                    def counting(*args, original=getattr(module, name), name=name):
                        calls[name] += 1
                        return original(*args)

                    monkeypatch.setattr(module, name, counting)
        orbits = sum(len(assemble_basic_set_gpn(*case).orbits) for case in cases)
        elements = sum(len(bs.elements) for bs in ambient.values())
        assert len(cases) == 10 and orbits < elements
        assert calls == {"sigma_action": elements}
