import pytest

from ariki.combinatorics import (
    ChargeData,
    Partition,
    enumerate_multipartitions,
    mp,
    n_function,
    partitions_of,
)
from ariki.errors import DomainError
from ariki.exactalg import MultiLaurent, specialise
from ariki.schur import (
    CycloSpec,
    a_value_via_valuation,
    alpha_identity,
    ariki_poly,
    conj_content_identity,
    is_defect_zero,
    is_semisimple,
    q_integer,
    schur_cancellation_free,
    schur_gim,
    schur_mathas,
    spec_map_cyclotomic,
    spec_map_for,
    spec_map_root_of_unity,
    xst_closed,
    xst_factor,
    xst_mathas,
)


def render(m):
    return m.render()


class TestCancellationFree:
    def test_level_one_examples(self):
        assert render(schur_cancellation_free(mp([2]))) == "q + 1"
        assert render(schur_cancellation_free(mp([1, 1]))) == "1 + q^-1"
        assert render(schur_cancellation_free(mp([]))) == "1"

    def test_two_components(self):
        # single node, cross hook 0, global sign -1
        assert render(schur_cancellation_free(mp([1], []))) == "-Q0*Q1^-1 + 1"

    def test_level_one_hook_product_oracle(self):
        # q^(-n(lam)) prod over nodes of [hook]_q, built with no shared code
        for size in range(0, 7):
            for p in partitions_of(size):
                expected = MultiLaurent.term(1, 1, e_q=-n_function(p))
                for (i, j) in p.nodes():
                    arm = p.parts[i - 1] - j
                    leg = sum(1 for row in p.parts[i:] if row >= j)
                    expected = expected * q_integer(1, arm + leg + 1)
                assert schur_cancellation_free(mp(p.parts)) == expected


class TestMathas:
    def test_matches_cancellation_free_small(self):
        for l, n in ((1, 4), (2, 3), (3, 2)):
            for lam in enumerate_multipartitions(l, n):
                assert schur_mathas(lam) == schur_cancellation_free(lam)

    def test_examples(self):
        assert render(schur_mathas(mp([2]))) == "q + 1"
        assert schur_mathas(mp([], [1])) == schur_cancellation_free(mp([], [1]))


class TestGIM:
    def test_single_box(self):
        assert render(schur_gim(mp([1]), 1)) == "1"

    def test_L_independence(self):
        for lam in enumerate_multipartitions(2, 3):
            base = schur_gim(lam, lam.length)
            for L in (lam.length + 1, lam.length + 2, lam.length + 3):
                assert schur_gim(lam, L) == base

    def test_matches_cancellation_free(self):
        for lam in enumerate_multipartitions(2, 3):
            expected = schur_cancellation_free(lam)
            for L in (lam.length, lam.length + 2):
                assert schur_gim(lam, L) == expected

    def test_L_too_small(self):
        with pytest.raises(DomainError):
            schur_gim(mp([1, 1], []), 1)


class TestXst:
    def test_empty_component_base_case(self):
        # first component empty: Q_0^3 times the three cross factors of (2,1),
        # with cross hooks 1, 0, -1
        lam = mp([], [2, 1])
        value = xst_factor(lam, 0, 1)
        assert value == xst_closed(lam, 0, 1) == xst_mathas(lam, 0, 1)
        expected = MultiLaurent.term(2, 1, e_Q=(3, 0))
        for h in (1, 0, -1):
            expected = expected * MultiLaurent(2, {(h, -1, 1): 1, (0, 0, 0): -1})
        assert value == expected

    def test_dual_route_agreement(self):
        assert xst_factor(mp([1], [1]), 0, 1) == xst_closed(mp([1], [1]), 0, 1)
        for lam in enumerate_multipartitions(2, 4):
            assert xst_mathas(lam, 0, 1) == xst_closed(lam, 0, 1)

    def test_three_components(self):
        lam = mp([2], [1], [1])
        for s, t in ((0, 1), (0, 2), (1, 2)):
            assert xst_factor(lam, s, t) == xst_mathas(lam, s, t)

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            xst_factor(mp([1], [1]), 1, 0)
        with pytest.raises(DomainError):
            xst_factor(mp([1], [1]), 0, 2)


class TestLemmas:
    def test_rim_content_identity_examples(self):
        assert conj_content_identity(Partition((1,)), 1)
        assert conj_content_identity(Partition((2, 1)), 1)
        assert conj_content_identity(Partition((2, 1)), 2)

    def test_rim_content_identity_exhaustive(self):
        for size in range(1, 7):
            for p in partitions_of(size):
                for k in range(1, p.part(1) + 1):
                    assert conj_content_identity(p, k)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            conj_content_identity(Partition((2,)), 3)

    def test_alpha_identity_examples(self):
        assert alpha_identity(mp([4, 1], [], [2, 1]))
        assert alpha_identity(mp([], [], []))

    def test_alpha_identity_exhaustive(self):
        for lam in enumerate_multipartitions(3, 5):
            assert alpha_identity(lam)


class TestSemisimplicity:
    def test_poly_examples(self):
        assert render(ariki_poly(1, 2)) == "q + 1"
        assert render(ariki_poly(2, 1)) == "Q0 - Q1"
        assert render(ariki_poly(1, 1)) == "1"

    def test_verdicts(self, schur_scan):
        cases = (
            (CycloSpec(2, 1, 1, (0,)), 1, 2, False),
            (CycloSpec(5, 1, 1, (0,)), 1, 2, True),
            (CycloSpec(12, 1, 6, (3, -1, -2)), 3, 2, False),
        )
        for spec, l, n, expected in cases:
            assert is_semisimple(spec, l, n) == expected == schur_scan(spec, l, n)

    def test_root_of_unity_mode(self, schur_scan):
        spec = CycloSpec(3, 1, 1, (0, 1), mode="rootofunity")
        assert is_semisimple(spec, 2, 1)
        assert schur_scan(spec, 2, 1)

    def test_invalid_spec(self):
        with pytest.raises(DomainError, match="gcd"):
            CycloSpec(4, 2, 1, (0,))
        with pytest.raises(DomainError):
            CycloSpec(1, 1, 1, (0,))
        with pytest.raises(DomainError):
            CycloSpec(4, 1, 0, (0,))


class TestDefectZero:
    def test_examples(self):
        assert is_defect_zero(mp([1]), 2, (0,))
        assert not is_defect_zero(mp([2]), 2, (0,))
        assert is_defect_zero(mp([1], []), 3, (0, 1))

    def test_e_too_small(self):
        with pytest.raises(DomainError):
            is_defect_zero(mp([1]), 1, (0,))

    def test_matches_zero_test_small_grid(self):
        for e in (2, 3, 4):
            for v in ((0,), (0, 1)):
                theta = spec_map_root_of_unity(e, 1, v)
                for n in (1, 2, 3):
                    for lam in enumerate_multipartitions(len(v), n):
                        nonzero = not specialise(schur_cancellation_free(lam), theta).is_zero()
                        assert is_defect_zero(lam, e, v) == nonzero


class TestValuationAValue:
    def test_examples(self):
        assert a_value_via_valuation(mp([1, 1]), ChargeData(1, (0,))) == 1
        assert a_value_via_valuation(mp([], []), ChargeData(3, (1, -1))) == 0

    def test_specialised_element_value(self):
        # theta(s_lam) for ((1),(1)) at r=6, charges (3,-1): valuation -6
        lam = mp([1], [1])
        charge = ChargeData(6, (3, -1))
        theta = spec_map_cyclotomic(charge)
        f = specialise(schur_cancellation_free(lam), theta)
        assert f.valuation() == -6
        assert a_value_via_valuation(lam, charge) == 6

    def test_composite_map_sends_q_to_minus_one(self):
        spec = CycloSpec(12, 1, 6, (3, -1, -2))
        theta = spec_map_for(spec, 3)
        two = specialise(q_integer(3, 2), theta)  # 1 + q at eta^6 = -1
        assert two.is_zero()
