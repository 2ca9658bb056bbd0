import random

import pytest

from ariki.basicset import (
    UglovCharge,
    assemble_basic_set,
    assemble_basic_set_gpn,
    charge_for,
    dm_partition,
    f_tilde,
    uglov_levels,
    uglov_multipartitions,
)
from ariki.combinatorics import (
    enumerate_multipartitions,
    mp,
    multipartition_to_json,
    sigma_action,
)
from ariki.errors import DomainError
from ariki.schur import CycloSpec, is_semisimple

SPEC_312 = CycloSpec(e=12, k=1, r=6, charges=(3, -1, -2))


def jset(elements):
    return {multipartition_to_json(x) for x in elements}


class TestDMPartition:
    def test_worked_example(self):
        dm = dm_partition(SPEC_312, 3, 2)
        assert dm.classes == ((0, 1), (2,))
        assert dm.e_prime == 2
        assert dm.s_vectors == ((0, 0), (0,))

    def test_periodic_zero_charges(self):
        spec = CycloSpec(e=12, k=1, r=6, charges=(0, 0, 0))
        dm = dm_partition(spec, 3, 2)
        assert dm.classes == ((0,), (1,), (2,))
        assert dm.s_vectors == ((0,), (0,), (0,))

    def test_huge_order_gives_singletons(self):
        spec = CycloSpec(e=101, k=1, r=1, charges=(0, 5, -3))
        dm = dm_partition(spec, 3, 3)
        assert dm.classes == ((0,), (1,), (2,))

    def test_requires_cyclotomic_mode(self):
        spec = CycloSpec(3, 1, 1, (0, 1), mode="rootofunity")
        with pytest.raises(DomainError):
            dm_partition(spec, 2, 2)

    def test_charge_for_checks_and_diagnostics(self):
        dm = dm_partition(SPEC_312, 3, 2)
        ch = charge_for(dm, 0, SPEC_312)
        assert ch.s == (0, 0)
        assert ch.e_prime == 2
        assert ch.eq4_exact
        assert any("modulo" in d for d in ch.diagnostics)


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
        levels = uglov_levels(2, 4, charge)
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
        assert jset(uglov_multipartitions(2, 0, UglovCharge(1, (0, 0)))) == {"[[],[]]"}
        with pytest.raises(DomainError):
            uglov_multipartitions(2, 1, UglovCharge(1, (0, 0)))


class TestAssembleBasicSet:
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


class TestGPN:
    def test_worked_example(self):
        spec = CycloSpec(e=12, k=1, r=2, charges=(0,))
        orbits = assemble_basic_set_gpn(spec, 3, 3, 2)
        assert len(orbits) == 2
        assert {multipartition_to_json(o.representative) for o in orbits} == {
            "[[1],[1],[]]",
            "[[2],[],[]]",
        }
        assert all(o.orbit_size == 3 and o.stabilizer_size == 1 for o in orbits)
        assert [o.labels for o in orbits] == [
            ("E^[[2],[],[]]",),
            ("E^[[1],[1],[]]",),
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
        orbits = assemble_basic_set_gpn(spec, 2, 1, 3)
        bs = assemble_basic_set(spec, 2, 3)
        assert {o.representative for o in orbits} == set(bs.elements)
        assert all(o.orbit_size == 1 and o.stabilizer_size == 1 for o in orbits)

    def test_accepts_full_periodic_charges(self):
        short = assemble_basic_set_gpn(CycloSpec(e=12, k=1, r=2, charges=(0,)), 3, 3, 2)
        full = assemble_basic_set_gpn(CycloSpec(e=12, k=1, r=2, charges=(0, 0, 0)), 3, 3, 2)
        assert short == full

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
            orbits = assemble_basic_set_gpn(spec, 2, 2, 3)
            ambient = CycloSpec(e, k, 2 * r, spec.charges * 2)
            bs = assemble_basic_set(ambient, 2, 3)
            assert is_semisimple(ambient, 2, 3) == schur_scan(ambient, 2, 3)
            assert sum(o.orbit_size for o in orbits) == len(bs.elements)
            assert all(o.orbit_size * o.stabilizer_size == 2 for o in orbits)
            # rotation stability, re-checked here
            elems = set(bs.elements)
            assert {sigma_action(x, 2, 1) for x in elems} == elems
