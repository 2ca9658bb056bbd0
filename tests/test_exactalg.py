import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ariki.errors import DomainError, InexactDivisionError
from ariki.exactalg import (
    CycloLaurent,
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
    _poly_mul,
    _reduce_mod_cyclotomic,
    cyclotomic_polynomial,
    exact_divide,
    product_divide,
    specialise,
)


def q_poly(*coeffs_by_exp):
    # helper: [(exp, coeff), ...] in one variable set l=1 (vars q, Q0)
    return MultiLaurent(1, {(e, 0): c for e, c in coeffs_by_exp})


laurent_terms = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6),
    max_size=5,
)


def make2(terms):
    return MultiLaurent(2, terms)


class TestRing:
    def test_difference_of_squares(self):
        q_plus = q_poly((1, 1), (0, 1))
        q_minus = q_poly((1, 1), (0, -1))
        assert q_plus * q_minus == q_poly((2, 1), (0, -1))

    def test_additive_inverse_is_empty(self):
        x = MultiLaurent(2, {(1, 2, -1): 3, (0, 0, 0): -4})
        assert (x + (-x)).terms == {}
        assert (x - x).is_zero()

    def test_monomial_inverses(self):
        a = MultiLaurent(1, {(-1, 1): 1})
        b = MultiLaurent(1, {(1, -1): 1})
        assert a * b == MultiLaurent.one(1)

    def test_mixed_widths_rejected(self):
        with pytest.raises(DomainError):
            MultiLaurent.one(1) + MultiLaurent.one(2)
        with pytest.raises(DomainError):
            MultiLaurent(1, {(0,): 1})

    @given(laurent_terms, laurent_terms, laurent_terms)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, ta, tb, tc):
        a, b, c = make2(ta), make2(tb), make2(tc)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@st.composite
def staged_quotients(draw):
    """(l, num factors, den factors, exact), with den factors of three exact kinds.

    Every den factor is divided out of the expanded num product in turn:
    +-monomial multiples of num factors, +-monomial * (q - 1) against a num
    factor +-monomial * (q^k - 1), and the product of two num factors.
    Inexact: 5 times a factor, which divides nothing, because coefficients
    lie in +-{1, 2, 3} and the content of a product is the product of the
    contents (Gauss).
    """
    l = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * (l + 1))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))

    def factor():
        return MultiLaurent(l, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))

    def unit():
        return MultiLaurent(l, {draw(exps): draw(st.sampled_from((1, -1)))})

    q = MultiLaurent.term(l, 1, e_q=1)
    one = MultiLaurent.one(l)
    nums = [factor() for _ in range(draw(st.integers(1, 4)))]
    unused = list(range(len(nums)))
    dens = []
    for kind in draw(st.lists(st.sampled_from(("unit", "binomial", "product")), max_size=4)):
        if kind == "unit" and unused:
            i = unused.pop(draw(st.integers(0, len(unused) - 1)))
            dens.append(unit() * nums[i])
        elif kind == "binomial":
            k = draw(st.integers(1, 4))
            nums.append(unit() * (MultiLaurent.term(l, 1, e_q=k) - one))
            dens.append(unit() * (q - one))
        elif kind == "product" and len(unused) >= 2:
            i, j = unused.pop(), unused.pop()
            dens.append(nums[i] * nums[j])
    exact = draw(st.booleans())
    if not exact:
        dens.insert(draw(st.integers(0, len(dens))), MultiLaurent(l, {(0,) * (l + 1): 5}) * factor())
    return l, draw(st.permutations(nums)), draw(st.permutations(dens)), exact


class TestExactDivide:
    def test_examples(self):
        l = 2
        f = MultiLaurent(l, {(2, 1, 0): 1, (0, 0, 1): -1})  # q^2 Q0 - Q1
        g = MultiLaurent(l, {(1, 1, 0): 1, (0, 0, 1): -1})  # q Q0 - Q1
        assert exact_divide(f * g, g) == f
        x = MultiLaurent(l, {(-2, 1, 3): 7, (0, 0, 0): 1})
        assert exact_divide(x, MultiLaurent.one(l)) == x
        assert exact_divide(q_poly((2, 1), (0, -1)), q_poly((1, 1), (0, -1))) == q_poly((1, 1), (0, 1))

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(q_poly((2, 1), (0, -1)), q_poly((1, 1), (0, -2)))
        with pytest.raises(InexactDivisionError):
            exact_divide(q_poly((1, 1)), q_poly((1, 2)))
        with pytest.raises(InexactDivisionError):
            exact_divide(q_poly((2, 1), (0, 1)), q_poly((1, 1), (0, 1)))
        # failure only surfaces deep in the reduction
        q_plus_1 = q_poly((1, 1), (0, 1))
        deep = q_plus_1 * q_plus_1 * q_plus_1 + MultiLaurent.one(1)
        with pytest.raises(InexactDivisionError):
            exact_divide(deep, q_plus_1)

    def test_zero_cases(self):
        with pytest.raises(DomainError):
            exact_divide(q_poly((0, 1)), MultiLaurent.zero(1))
        assert exact_divide(MultiLaurent.zero(1), q_poly((0, 2))).is_zero()

    def test_wide_exponent_spread_divides_exactly(self):
        # (q^(2^27) + 1)(q - 1) / (q - 1): the exponents span more than a
        # 27-bit field, so the packed fields must widen for this call.  Run
        # with and without -O: no assert guards the result.
        code = (
            "from ariki.exactalg import MultiLaurent, exact_divide\n"
            "q_minus_1 = MultiLaurent(1, {(1, 0): 1, (0, 0): -1})\n"
            "wide = MultiLaurent(1, {(2**27, 0): 1, (0, 0): 1})\n"
            "print(exact_divide(wide * q_minus_1, q_minus_1) == wide)\n"
        )
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
            assert proc.stdout == "True\n", (flags, proc.stderr)

    @given(laurent_terms, laurent_terms)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, ta, tb):
        a, b = make2(ta), make2(tb)
        if a.is_zero() or b.is_zero():
            return
        assert exact_divide(a * b, b) == a

    def test_product_divide_matches_chain(self):
        l = 1
        fs = [q_poly((1, 1), (0, -1)), q_poly((2, 1), (0, 1)), q_poly((0, 3))]
        chained = MultiLaurent.one(l)
        for f in fs:
            chained = chained * f
        assert product_divide(l, fs) == chained
        assert product_divide(l, fs, [fs[1]]) == exact_divide(chained, fs[1])

    @given(staged_quotients())
    @settings(max_examples=300, deadline=None)
    def test_product_divide_cancels_then_expands(self, case):
        # product_divide expands the num factors, then divides by each den
        # factor in turn; the quotient is checked by multiplying back.
        l, nums, dens, exact = case
        if not exact:
            with pytest.raises(InexactDivisionError):
                product_divide(l, nums, dens)
            return
        result = product_divide(l, nums, dens)
        lhs, rhs = result, MultiLaurent.one(l)
        for d in dens:
            lhs = lhs * d
        for f in nums:
            rhs = rhs * f
        assert lhs == rhs


class TestRender:
    def test_golden(self):
        f = MultiLaurent(2, {(2, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1})
        assert f.render() == "q^2*Q0 - Q1 + 1"
        assert MultiLaurent.zero(2).render() == "0"
        assert MultiLaurent.one(2).render() == "1"
        g = MultiLaurent(1, {(0, 1): -2, (-1, 0): 1})
        assert g.render() == "-2*Q0 + q^-1"
        assert MultiLaurent(1, {(0, -1): 1}).render() == "Q0^-1"


# ---------------------------------------------------------------------------
# Reference routes for the cyclotomic kernels: the slow, obviously-correct
# algorithms that the linear-time kernels replaced.


def _ref_divide_exact(num, den):
    # Long division by a monic den, skipping its zero coefficients.
    num = list(num)
    dn = len(den) - 1
    support = [(j, dj) for j, dj in enumerate(den) if dj]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, dj in support:
                num[i - dn + j] -= c * dj
    assert not any(num[:dn]), "remainder"
    return out


@lru_cache(maxsize=None)
def _ref_cyclotomic(n):
    # Recursive division: Phi_n = (x^n - 1) / prod of Phi_d over d | n, d < n.
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(_ref_cyclotomic(d)))
    return tuple(_ref_divide_exact([-1] + [0] * (n - 1) + [1], den))


def _ref_reduce(coeffs, n):
    # Plain long division by the full Phi_n.
    mod = _ref_cyclotomic(n)
    phi = len(mod) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(phi + 1):
                coeffs[i - phi + j] -= c * mod[j]
    coeffs = coeffs[:phi]
    return tuple(coeffs + [0] * (phi - len(coeffs)))


@lru_cache(maxsize=None)
def _ref_zeta_power(n, a):
    return CyclotomicInt(n, _ref_reduce([0] * a + [1], n))


def _ref_specialise(f, theta):
    # The per-term sum of c * zeta^a * u^b.
    n = theta.n
    out = CycloLaurent.zero(n)
    for exps, c in f.terms.items():
        a = exps[0] * theta.q_image[0] + sum(e * aj for e, (aj, _) in zip(exps[1:], theta.Q_images))
        b = exps[0] * theta.q_image[1] + sum(e * bj for e, (_, bj) in zip(exps[1:], theta.Q_images))
        zeta_a = _ref_zeta_power(n, a % n)
        out = out + CycloLaurent(n, {b: CyclotomicInt(n, (c * x for x in zeta_a.coeffs))})
    return out


LARGE_CONDUCTORS = (1497, 1996, 20014)


@st.composite
def laurent_and_map(draw):
    l = draw(st.integers(1, 3))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(-4, 4)] * (l + 1)), st.integers(-5, 5).filter(bool), max_size=6
        )
    )
    n = draw(st.sampled_from(list(range(1, 31)) + [202, 303, 1497]))
    images = draw(st.lists(st.tuples(st.integers(0, 2 * n), st.integers(-3, 3)), min_size=l + 1, max_size=l + 1))
    images[0] = (images[0][0], draw(st.integers(1, 3)))  # q always moves in u
    return MultiLaurent(l, terms), SpecMap(n=n, q_image=images[0], Q_images=tuple(images[1:]))


class TestCyclotomicKernels:
    def test_polynomial_matches_recursive_division(self):
        for n in list(range(1, 401)) + list(LARGE_CONDUCTORS):
            assert cyclotomic_polynomial(n) == _ref_cyclotomic(n), n

    def test_reducer_matches_long_division(self):
        rng = random.Random(20014)
        for n in list(range(1, 61)) + [202, 210, 303, 1497]:
            for length in sorted({1, n, 2 * n, rng.randint(1, 2 * n), rng.randint(1, 2 * n)}):
                coeffs = [rng.randint(-9, 9) for _ in range(length)]
                assert _reduce_mod_cyclotomic(coeffs, n) == _ref_reduce(coeffs, n), (n, length)

    @given(laurent_and_map())
    @settings(max_examples=120, deadline=None)
    def test_specialise_matches_per_term_sum(self, case):
        f, theta = case
        assert specialise(f, theta) == _ref_specialise(f, theta)


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for n in list(range(1, 25)) + list(LARGE_CONDUCTORS):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (n - 1) + [1], n

    def test_zeta_squares(self):
        z4 = CyclotomicInt.zeta_power(4, 1)
        assert z4 * z4 == CyclotomicInt.from_int(4, -1)
        z3 = CyclotomicInt.zeta_power(3, 1)
        assert z3 * z3 == CyclotomicInt(3, (-1, -1))

    def test_zeta_order(self):
        for n in range(1, 25):
            acc = CyclotomicInt.from_int(n, 1)
            z = CyclotomicInt.zeta_power(n, 1)
            for _ in range(n):
                acc = acc * z
            assert acc == CyclotomicInt.from_int(n, 1)

    def test_mixed_conductors_rejected(self):
        with pytest.raises(DomainError):
            CyclotomicInt.from_int(3, 1) + CyclotomicInt.from_int(4, 1)


class TestCycloLaurent:
    def test_valuation(self):
        one = CyclotomicInt.from_int(1, 1)
        f = CycloLaurent(1, {-1: one, 0: one})
        assert f.valuation() == -1
        assert CycloLaurent(1, {0: CyclotomicInt.from_int(1, 5)}).valuation() == 0
        g = CycloLaurent(1, {3: one, 5: -one})
        assert g.valuation() == 3

    def test_valuation_of_zero_rejected(self):
        with pytest.raises(DomainError):
            CycloLaurent.zero(4).valuation()

    def test_zero_coefficients_dropped(self):
        z = CyclotomicInt.zero(4)
        assert CycloLaurent(4, {2: z}).is_zero()


class TestSpecialise:
    def test_q_to_u(self):
        theta = SpecMap(n=1, q_image=(0, 1), Q_images=((0, 0),))
        f = q_poly((1, 1), (0, 1))
        out = specialise(f, theta)
        one = CyclotomicInt.from_int(1, 1)
        assert out == CycloLaurent(1, {1: one, 0: one})

    def test_charge_difference(self):
        theta = SpecMap(n=4, q_image=(0, 0), Q_images=((0, 0), (1, 0)))
        f = MultiLaurent(2, {(0, 1, 0): 1, (0, 0, 1): -1})  # Q0 - Q1
        out = specialise(f, theta)
        assert out == CycloLaurent(4, {0: CyclotomicInt(4, (1, -1))})

    @given(laurent_terms, laurent_terms, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_homomorphism(self, ta, tb, n):
        theta = SpecMap(n=n, q_image=(1, 2), Q_images=((3, -1), (0, 1)))
        f, g = make2(ta), make2(tb)
        assert specialise(f * g, theta) == specialise(f, theta) * specialise(g, theta)
        assert specialise(f + g, theta) == specialise(f, theta) + specialise(g, theta)

    def test_wrong_width(self):
        theta = SpecMap(n=2, q_image=(0, 1), Q_images=((0, 0),))
        with pytest.raises(DomainError):
            specialise(MultiLaurent.one(2), theta)
