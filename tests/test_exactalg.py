import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ariki.errors import DomainError, InexactDivisionError
from ariki.exactalg import (
    CycloLaurent,
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
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

    def test_packed_exponent_overflow_is_a_domain_error(self):
        # (q^(2^27) + 1)(q - 1) / (q - 1) is exact, but its exponents do not
        # fit a packed field.  Run with and without -O: the guard is no assert.
        code = (
            "from ariki.errors import DomainError\n"
            "from ariki.exactalg import MultiLaurent, exact_divide\n"
            "q_minus_1 = MultiLaurent(1, {(1, 0): 1, (0, 0): -1})\n"
            "num = MultiLaurent(1, {(2**27, 0): 1, (0, 0): 1}) * q_minus_1\n"
            "try:\n"
            "    exact_divide(num, q_minus_1)\n"
            "except DomainError:\n"
            "    print('DomainError')\n"
        )
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
            assert proc.stdout == "DomainError\n", (flags, proc.stderr)

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


class TestRender:
    def test_golden(self):
        f = MultiLaurent(2, {(2, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1})
        assert f.render() == "q^2*Q0 - Q1 + 1"
        assert MultiLaurent.zero(2).render() == "0"
        assert MultiLaurent.one(2).render() == "1"
        g = MultiLaurent(1, {(0, 1): -2, (-1, 0): 1})
        assert g.render() == "-2*Q0 + q^-1"
        assert MultiLaurent(1, {(0, -1): 1}).render() == "Q0^-1"


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        from ariki.exactalg import _poly_mul

        for n in range(1, 25):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (n - 1) + [1]

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
