import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ariki import exactalg, schur
from ariki.combinatorics import (
    ChargeData,
    Partition,
    enumerate_multipartitions,
    mp,
    n_function,
    partitions_of,
)
from ariki.errors import DomainError, InternalError
from ariki.exactalg import CycloLaurent, MultiLaurent, cyclotomic_polynomial, specialise
from ariki.schur import (
    CycloSpec,
    _cancellation_free_factors,
    _Factors,
    _gim_factors,
    _mathas_factors,
    a_value_via_valuation,
    ariki_poly,
    is_defect_zero,
    is_semisimple,
    render_formulas,
    schur_cancellation_free,
    schur_gim,
    schur_mathas,
    spec_map_cyclotomic,
    spec_map_for,
    spec_map_root_of_unity,
    theta_p,
)
from ariki.verify import alpha_identity, conj_content_identity
from xst_routes import xst_closed, xst_mathas


def render(m):
    return m.render()


def q_integer(l, m):
    return plain_factor(l, ("q_integer", m))


def chained_criterion(l, n):
    """Ariki's criterion from plain factors, multiplied by chained ``MultiLaurent.__mul__``."""
    acc = MultiLaurent.one(l)
    for i in range(2, n + 1):
        acc = acc * q_integer(l, i)
    for s in range(l):
        for t in range(s + 1, l):
            for k in range(-n + 1, n):
                acc = acc * plain_factor(l, ("pair", k, s, 0, t))
    return acc


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

    def test_matches_cancellation_free_at_large_L(self):
        for parts in ([[2, 1], [1], [1]], [[1], [], [2], [1]], [[3], [1, 1]], [[], [2, 2]], [[1], [1], [1], [1]]):
            lam = mp(*parts)
            expected = schur_cancellation_free(lam)
            for L in range(lam.length, lam.length + 7):
                assert schur_gim(lam, L) == expected, (parts, L)

    def test_L_too_small(self):
        with pytest.raises(DomainError):
            schur_gim(mp([1, 1], []), 1)


class TestXst:
    def test_empty_component_base_case(self):
        # first component empty: Q_0^3 times the three cross factors of (2,1),
        # with cross hooks 1, 0, -1
        lam = mp([], [2, 1])
        value = xst_closed(lam, 0, 1)
        assert value == xst_mathas(lam, 0, 1)
        expected = MultiLaurent.term(2, 1, e_Q=(3, 0))
        for h in (1, 0, -1):
            expected = expected * MultiLaurent(2, {(h, -1, 1): 1, (0, 0, 0): -1})
        assert value == expected

    def test_dual_route_agreement(self):
        assert xst_mathas(mp([1], [1]), 0, 1) == xst_closed(mp([1], [1]), 0, 1)
        for lam in enumerate_multipartitions(2, 4):
            assert xst_mathas(lam, 0, 1) == xst_closed(lam, 0, 1)

    def test_three_components(self):
        lam = mp([2], [1], [1])
        for s, t in ((0, 1), (0, 2), (1, 2)):
            assert xst_closed(lam, s, t) == xst_mathas(lam, s, t)


@st.composite
def factor_ops(draw):
    """(l, ops): calls of the _Factors methods, each ("name", *args), with k left out."""
    l = draw(st.integers(1, 3))
    kinds = ["q_power_minus_one", "q_integer", "monomial"] + (["cross", "pair"] if l > 1 else [])
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind in ("q_power_minus_one", "q_integer"):
            ops.append((kind, draw(st.integers(1, 6))))
        elif kind == "monomial":
            e_Q = tuple(draw(st.lists(st.integers(-2, 2), min_size=l, max_size=l)))
            ops.append((kind, draw(st.sampled_from((1, -1))), draw(st.integers(-3, 3)), e_Q))
        else:
            s, t = draw(st.permutations(range(l)))[:2]
            if kind == "cross":
                ops.append((kind, draw(st.integers(-3, 3)), s, t))
            else:
                ops.append((kind, draw(st.integers(-3, 3)), s, draw(st.integers(-3, 3)), t))
    return l, ops


def plain_factor(l, op):
    """The op's factor as a MultiLaurent, built from monomials by + and -."""
    def mono(e_q, *powers):
        e_Q = [0] * l
        for j, e in powers:
            e_Q[j] += e
        return MultiLaurent.term(l, 1, e_q, e_Q)

    one = MultiLaurent.one(l)
    kind, *args = op
    if kind == "q_power_minus_one":
        return mono(args[0]) - one
    if kind == "q_integer":
        return sum((mono(i) for i in range(1, args[0])), one)
    if kind == "monomial":
        return MultiLaurent.term(l, *args)
    if kind == "cross":
        h, s, t = args
        return mono(h, (s, 1), (t, -1)) - one
    a, s, b, t = args
    return mono(a, (s, 1)) - mono(b, (t, 1))


def apply_op(f, op, k):
    kind, *args = op
    if kind == "monomial":
        sign, e_q, e_Q = args
        f.monomial(sign, k * e_q, tuple(k * e for e in e_Q))
    else:
        getattr(f, kind)(*args, k)


def associate(op):
    """The same factor written the other way round, a unit times the original."""
    kind, *args = op
    if kind == "cross":
        h, s, t = args
        return ("cross", -h, t, s)
    if kind == "pair":
        a, s, b, t = args
        return ("pair", b, t, a, s)
    return op


class TestFactors:
    @given(factor_ops(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_expand_matches_the_general_kernel(self, case, data):
        l, ops = case
        dens = [
            associate(op) if data.draw(st.booleans()) else op
            for op, keep in zip(ops, data.draw(st.lists(st.booleans(), min_size=len(ops), max_size=len(ops))))
            if keep
        ]
        f = _Factors(l)
        for op in ops:
            apply_op(f, op, 1)
        for op in dens:
            apply_op(f, op, -1)
        # Multiply back: the expansion times the den factors is the num product.
        lhs, rhs = f.expand(), MultiLaurent.one(l)
        for op in dens:
            lhs = lhs * plain_factor(l, op)
        for op in ops:
            rhs = rhs * plain_factor(l, op)
        assert lhs == rhs

        # Divide the whole num out, then one more factor that is not a unit.
        extra = data.draw(st.sampled_from(ops))
        if extra[0] == "monomial" or extra == ("q_integer", 1):
            return
        g = _Factors(l)
        for op in ops:
            apply_op(g, op, 1)
            apply_op(g, associate(op), -1)
        apply_op(g, extra, -1)
        with pytest.raises(InternalError):
            g.expand()

    def test_equality_ignores_zero_and_compares_negative_multiplicities(self):
        def built(*keys, sign=1, e_q=0, e_Q=(0, 0)):
            f = _Factors(2)
            f.monomial(sign, e_q, e_Q)
            for key, k in keys:
                f.keys[key] += k
            return f

        base = built((("phi", 2), 1), (("x", 1, 0, 1), 2))
        assert base == built((("phi", 2), 1), (("x", 1, 0, 1), 2), (("phi", 3), 0))
        assert base != built((("phi", 2), 1), (("x", 1, 0, 1), 2), (("phi", 3), -1))
        assert built((("phi", 3), -1)) != built((("phi", 3), 0))
        assert base != built((("phi", 2), 1), (("x", 1, 0, 1), 1))
        assert base != built((("phi", 2), 1), (("x", 1, 0, 1), 2), sign=-1)
        assert base != built((("phi", 2), 1), (("x", 1, 0, 1), 2), e_q=1)
        assert base != built((("phi", 2), 1), (("x", 1, 0, 1), 2), e_Q=(0, 1))
        assert _Factors(1) != _Factors(2)

    def test_divisors_found_up_to_the_square_root(self):
        for h in range(1, 200):
            f = _Factors(1)
            f.q_power_minus_one(h, 2)
            assert f.keys == {("phi", d): 2 for d in range(1, h + 1) if h % d == 0}, h

    def test_nonpositive_exponents_are_domain_errors(self):
        f = _Factors(2)
        for h in (0, -2):
            with pytest.raises(DomainError):
                f.q_power_minus_one(h)
            with pytest.raises(DomainError, match="same-component hooks"):
                f.q_integer(h)


class TestSchurAll:
    """All three formulas at once, through ``render_formulas``."""

    ALL = ("cancel", "mathas", "gim")

    def test_equals_the_three_independent_expansions(self):
        for l, n in [(l, n) for l in (1, 2, 3) for n in range(5)]:
            for lam in enumerate_multipartitions(l, n):
                cancel, mathas = schur_cancellation_free(lam).render(), schur_mathas(lam).render()
                for L in (lam.length, lam.length + 1, lam.length + 3):
                    values = render_formulas(lam, L, self.ALL)
                    assert list(values) == ["cancel", "mathas", "gim"]
                    assert values["cancel"] == cancel, (lam, L)
                    assert values["mathas"] == mathas, (lam, L)
                    assert values["gim"] == schur_gim(lam, L).render(), (lam, L)

    def test_expands_each_distinct_multiset_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        real = schur.render_product
        monkeypatch.setattr(schur, "render_product", counting)
        values = render_formulas(mp([2, 1], [1], [1]), None, self.ALL)
        assert len(calls) == 1
        assert values["cancel"] is values["mathas"] is values["gim"]

    def test_render_is_the_expansion_rendered(self):
        for l, n in [(l, n) for l in (1, 2, 3) for n in range(5)]:
            for lam in enumerate_multipartitions(l, n):
                for f in (_cancellation_free_factors(lam), _mathas_factors(lam), _gim_factors(lam)):
                    assert f.render() == f.expand().render(), lam

    def test_gim_multiset_equals_the_cancellation_free_one(self):
        for l, n in [(l, n) for l in (1, 2, 3) for n in range(4)]:
            for lam in enumerate_multipartitions(l, n):
                expected = _cancellation_free_factors(lam)
                assert _mathas_factors(lam) == expected, lam
                for L in range(lam.length, lam.length + 41):
                    assert _gim_factors(lam, L) == expected, (lam, L)


def factors_value(f: _Factors, q: Fraction, Q: tuple[Fraction, ...]) -> Fraction:
    """A factor multiset's value at (q, Q), factor by factor in exact Fractions: no expansion."""
    value = f.sign * q**f.e_q * math.prod(x**e for x, e in zip(Q, f.e_Q))
    for key, k in f.keys.items():
        if key[0] == "phi":
            base = sum(c * q**i for i, c in enumerate(cyclotomic_polynomial(key[1])))
        else:
            h, s, t = key[1:]
            base = q**h * Q[s] / Q[t] - 1
        value *= base**k
    return value


def standard_tableaux(m) -> int:
    """dim S^m: n! / prod |m^(c)|! times prod of f^(m^(c)), each by the hook length formula."""
    dim = math.factorial(m.rank) // math.prod(math.factorial(c.size) for c in m.components)
    for c in m.components:
        columns = [sum(p >= j for p in c.parts) for j in range(1, c.part(1) + 1)]
        hooks = math.prod(p - j + columns[j - 1] - i + 1 for i, p in enumerate(c.parts, 1) for j in range(1, p + 1))
        dim *= math.factorial(c.size) // hooks
    return dim


class TestTraceIdentity:
    """tau(1) = 1 for the symmetrising trace tau = sum over m of chi_m / s_m.

    So sum over m of dim S^m / s_m = 1 for every (l, n), at every point.  A
    factor that all three formulas share, a sign or a monomial, which the
    cross-check between them cannot see, breaks it.
    """

    BUILDERS = {
        "cancel": _cancellation_free_factors,
        "mathas": _mathas_factors,
        "gim": lambda m: _gim_factors(m, m.length + 1),
    }

    @pytest.mark.parametrize("l, n", [(l, n) for l in (1, 2, 3) for n in range(6)] + [(4, n) for n in range(5)])
    def test_dimensions_over_schur_elements_sum_to_one(self, l, n):
        rng = random.Random(100 * l + n)
        lams = enumerate_multipartitions(l, n)
        for _ in range(2):
            # 0 < q < 1, so no Phi_d vanishes at q.
            q = Fraction(rng.randint(1, 40), rng.randint(41, 80))
            Q = tuple(Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(l))
            for name, build in self.BUILDERS.items():
                total = sum(Fraction(standard_tableaux(m)) / factors_value(build(m), q, Q) for m in lams)
                assert total == 1, (name, q, Q)

    def test_dimensions_are_standard_tableaux_counts(self):
        # Level 1: the hook length formula; level l, rank n: sum of dim^2 is l^n n!.
        assert [standard_tableaux(mp(p)) for p in ([3], [2, 1], [1, 1, 1], [3, 2, 1])] == [1, 2, 1, 16]
        for l, n in [(1, 5), (2, 4), (3, 3)]:
            total = sum(standard_tableaux(m) ** 2 for m in enumerate_multipartitions(l, n))
            assert total == l**n * math.factorial(n)


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


@st.composite
def criterion_cases(draw):
    """(spec, l, n, forced): composite and prime e, some with e' = 1, and
    with forced set, charges solved so that q^k Q_s - Q_t maps to zero."""
    cells = [(l, n) for l in (1, 2, 3) for n in range(1, 5)] + [(1, 5), (1, 6), (2, 5), (2, 6)]
    # The benchmark's heavy cells and prime e.
    cells += [(3, 5), (4, 1), (4, 2), (4, 3)]
    l, n = draw(st.sampled_from(cells))
    e = draw(st.sampled_from((2, 3, 4, 6, 8, 12, 5, 7, 101, 211, 499)))
    k = draw(st.sampled_from([k for k in range(1, e) if math.gcd(k, e) == 1]))
    r = draw(st.one_of(st.integers(1, 12), st.integers(1, 3).map(lambda m: m * e)))
    charges = draw(st.lists(st.integers(-6, 6), min_size=l, max_size=l))
    # Under spec_map_for, q^kk Q_s - Q_t vanishes iff
    # k (kk r + r_s - r_t) = (e/l)(t - s) mod e, solvable for r_t when l | e.
    forced = l > 1 and e % l == 0 and draw(st.booleans())
    if forced:
        s, t = draw(st.sampled_from([(s, t) for s in range(l) for t in range(s + 1, l)]))
        kk = draw(st.integers(-n + 1, n - 1))
        charges[t] = (kk * r + charges[s] - pow(k, -1, e) * (e // l) * (t - s)) % e
    return CycloSpec(e, k, r, tuple(charges)), l, n, forced


class TestSemisimplicity:
    def test_poly_examples(self):
        assert render(ariki_poly(1, 2)) == "q + 1"
        assert render(ariki_poly(2, 1)) == "Q0 - Q1"
        assert render(ariki_poly(1, 1)) == "1"

    @pytest.mark.parametrize("l, n", [(l, n) for l in (1, 2, 3) for n in (1, 2, 3, 4)] + [(4, 2)])
    def test_poly_matches_chained_reference(self, l, n):
        assert ariki_poly(l, n) == chained_criterion(l, n)

    @given(criterion_cases())
    @example((CycloSpec(5, 1, 1, (0,)), 1, 1, False))
    @example((CycloSpec(12, 1, 6, (3, -1, -2)), 3, 2, False))
    @settings(max_examples=300, deadline=None)
    def test_per_factor_matches_expanded_criterion(self, case):
        spec, l, n, forced = case
        expanded = specialise(ariki_poly(l, n), spec_map_for(spec, l))
        value = theta_p(spec, l, n)
        assert is_semisimple(spec, l, n) == (not expanded.is_zero())
        assert (value.render(), value.n) == (expanded.render(), expanded.n)
        if forced:
            assert not is_semisimple(spec, l, n) and value.render() == "0"

    def test_packed_product_by_conductor(self, monkeypatch):
        # theta_p multiplies the binomials in one packed int at the
        # benchmark's conductors, and sparse at N = 300,009, where a packed
        # step costs time in proportion to N and the product stays sparse.
        steps = []

        def counting(*args):
            steps.append(args[1])
            return packed_binomial(*args)

        packed_binomial = exactalg._packed_binomial
        monkeypatch.setattr(exactalg, "_packed_binomial", counting)
        pairs = 3 * 9  # s < t, -n < k < n at l = 3, n = 5
        cases = ((CycloSpec(499, 345, 3, (1, -4, 0)), pairs), (CycloSpec(100003, 1, 1, (0, 17, 33)), 0))
        for spec, packed_steps in cases:
            steps.clear()
            assert is_semisimple(spec, 3, 5)
            theta_p(spec, 3, 5)
            assert len(steps) == packed_steps, spec

    def test_theta_p_examples(self):
        # l = 1, n = 1 has no factor at all; with e' = 1, q maps to 1 and [i]_q to i.
        value = theta_p(CycloSpec(5, 1, 1, (0,)), 1, 1)
        assert (value.render(), value.n) == ("(1)", 5)
        assert theta_p(CycloSpec(4, 1, 4, (0,)), 1, 3).render() == "(6)"

    def test_invalid_rank(self):
        # Rank 0 is valid: the criterion has no factor, and the empty product is 1.
        spec = CycloSpec(3, 1, 1, (0, 1))
        assert is_semisimple(spec, 2, 0)
        assert render(ariki_poly(2, 0)) == "1"
        value = theta_p(spec, 2, 0)
        assert (value.render(), value.n) == ("(1)", 6)
        with pytest.raises(DomainError, match=r"need l >= 1 and n >= 0"):
            is_semisimple(spec, 2, -1)

    def test_conductor_cap(self, monkeypatch):
        semisimple, not_semisimple = CycloSpec(50, 1, 1, (0, 17, 33)), CycloSpec(12, 1, 6, (3, -1, -2))
        monkeypatch.setattr(schur, "MAX_CONDUCTOR", 150)
        assert theta_p(semisimple, 3, 4).n == 150
        monkeypatch.setattr(schur, "MAX_CONDUCTOR", 149)
        with pytest.raises(DomainError, match=r"N = lcm\(l, e\) = 150 for l = 3, e = 50 .* cap of 149"):
            theta_p(semisimple, 3, 4)
        # A vanishing criterion needs no work of size N.
        monkeypatch.setattr(schur, "MAX_CONDUCTOR", 11)
        assert theta_p(not_semisimple, 3, 2) == CycloLaurent.zero(12)

    def test_verdicts(self, schur_scan):
        cases = (
            (CycloSpec(2, 1, 1, (0,)), 1, 2, False),
            (CycloSpec(5, 1, 1, (0,)), 1, 2, True),
            (CycloSpec(12, 1, 6, (3, -1, -2)), 3, 2, False),
            # e' = 3: [3]_q vanishes at n = 3, though q does not map to 1.
            (CycloSpec(6, 1, 2, (0,)), 1, 2, True),
            (CycloSpec(6, 1, 2, (0,)), 1, 3, False),
            # q Q_0 - Q_1 maps to i - i = 0 once n = 2 lets k reach 1; e' = 4 > n.
            (CycloSpec(4, 1, 1, (0, -1)), 2, 1, True),
            (CycloSpec(4, 1, 1, (0, -1)), 2, 2, False),
        )
        for spec, l, n, expected in cases:
            assert is_semisimple(spec, l, n) == expected == schur_scan(spec, l, n)

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
