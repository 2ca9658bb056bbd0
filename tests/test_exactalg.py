import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ariki import exactalg
from ariki.errors import DomainError, InternalError
from ariki.exactalg import (
    CycloLaurent,
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
    _modulus,
    _over_binomial,
    _poly_mul,
    _reduce_mod_cyclotomic,
    _times_binomial,
    cyclotomic_polynomial,
    product_divide,
    render_product,
    specialise,
    u_valuation,
)
from ariki.verify import verify_fuzz


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
        assert a * b == MultiLaurent.term(1, 1)

    def test_mixed_widths_rejected(self):
        with pytest.raises(DomainError):
            MultiLaurent.term(1, 1) + MultiLaurent.term(2, 1)
        with pytest.raises(DomainError):
            MultiLaurent(1, {(0,): 1})

    def test_term_pads_and_checks_the_Q_exponents(self):
        assert MultiLaurent.term(2, 3, 1, (2,)) == MultiLaurent(2, {(1, 2, 0): 3})
        for coeff in (1, 0):
            with pytest.raises(DomainError, match=r"\(0, 1, 2\) has length 3, expected 2"):
                MultiLaurent.term(1, coeff, 0, (1, 2))
        with pytest.raises(DomainError, match=r"\(0, 1, 2\) has length 3, expected 2"):
            MultiLaurent(1, {(0, 1, 2): 1})

    def test_zero_coefficients_are_length_checked_too(self):
        def message(terms):
            with pytest.raises(DomainError) as info:
                MultiLaurent(1, terms)
            return str(info.value)

        for bad in ((0, 1, 2), (0,)):
            assert message({bad: 0}) == message({bad: 1})
            assert message({(0, 0): 1, bad: 0}) == message({bad: 1})
        assert message({(0, 1, 2): 0}) == "exponent vector (0, 1, 2) has length 3, expected 2"

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
def factor_lists(draw):
    """(l, factors): 0 to 4 factors with negative exponents; an empty term map is a zero factor."""
    l = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * (l + 1))
    factor = st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(lambda terms: MultiLaurent(l, terms))
    return l, draw(st.lists(factor, max_size=4))


@st.composite
def nonzero_factor_lists(draw):
    """(l, factors): 1 to 4 nonzero factors, in the ranges of the fuzz suite's random factors."""
    l = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * (l + 1))
    coeff = st.integers(-5, 5).filter(bool)
    factor = st.dictionaries(exps, coeff, min_size=1, max_size=6).map(lambda terms: MultiLaurent(l, terms))
    return l, draw(st.lists(factor, min_size=1, max_size=4))


def _Q_span(f):
    """The highest Q-degree of f's terms less the lowest."""
    degrees = [sum(exps) - exps[0] for exps in f.terms]
    return max(degrees) - min(degrees)


# Magnitudes whose signed fields need 8, 16, 32, 64 and more than 64 bits.
_FIELD_EDGES = (2**7, 2**15, 2**31, 2**63, 2**90)


@st.composite
def kernel_cases(draw):
    """(l, factors) for the packed kernel's edge cases.

    l is 0 to 4.  A factor is a run of consecutive powers of q times one
    Q-monomial, or terms spread over several Q-monomials, either of them
    with a constant term of 1 or -1 half the time, or a lone constant 1 or
    -1, or zero; exponents may be negative, and runs make products dense in
    q over rows of unequal Q-degree.  Coefficients reach just below or above
    a word edge, and the leading term of a factor is made negative half the
    time, so that fields borrow.  The list may be empty.
    """
    l = draw(st.integers(0, 4))
    edge = draw(st.sampled_from(_FIELD_EDGES))
    coeff = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([edge - 1, edge, -edge, -edge - 1]),
        st.integers(-edge, edge),
    )
    exponent = st.integers(-5, 5)

    def factor():
        kind = draw(st.sampled_from(["q-run", "q-run", "spread", "spread", "unit", "zero"]))
        if kind == "zero":
            return MultiLaurent(l)
        unit = draw(st.sampled_from([1, -1]))
        if kind == "unit":
            return MultiLaurent(l, {(0,) * (l + 1): unit})
        if kind == "q-run":
            Q = tuple(draw(st.lists(exponent, min_size=l, max_size=l)))
            start = draw(exponent)
            terms = {(start + i,) + Q: draw(coeff) for i in range(draw(st.integers(1, 5)))}
        else:
            terms = draw(st.dictionaries(st.tuples(*[exponent] * (l + 1)), coeff, min_size=1, max_size=4))
        if draw(st.booleans()):
            terms[(0,) * (l + 1)] = unit
        f = MultiLaurent(l, terms)
        if f.terms and draw(st.booleans()):
            lead = max(f.terms, key=_graded_lex)
            f.terms[lead] = -abs(f.terms[lead])
        return f

    return l, [factor() for _ in range(draw(st.integers(0, 5)))]


class TestExactDivide:
    """product_divide, and the exact binomial division left in cyclotomic_polynomial."""

    def test_inexact_raises(self):
        # (2 + x)(x^3 - 1) / (x^3 - 1) is exact; (1 + x^3) / (x - 1) leaves 2.
        assert _over_binomial(_times_binomial([2, 1], 3), 3) == [2, 1]
        with pytest.raises(InternalError):
            _over_binomial([1, 0, 0, 1], 1)

    def test_zero_cases(self):
        x = q_poly((1, 1), (0, -1))
        assert product_divide(1, [x, MultiLaurent(1), x]).is_zero()
        assert product_divide(1, []) == MultiLaurent.term(1, 1)
        assert render_product(1, [x, MultiLaurent(1), x]) == "0"
        assert render_product(1, []) == "1"
        with pytest.raises(DomainError):
            product_divide(1, [x, MultiLaurent.term(2, 1)])

    @pytest.mark.parametrize("finisher", [product_divide, render_product])
    def test_zero_factor_checks_every_variable_count(self, finisher):
        # A zero factor does not end the check: the other factor's count is
        # refused in either order.
        for factors in ([MultiLaurent(1), MultiLaurent.term(2, 1)], [MultiLaurent.term(2, 1), MultiLaurent(1)]):
            with pytest.raises(DomainError, match="mixed variable counts: 2 != 1"):
                finisher(1, factors)

    def test_wide_exponent_spread_multiplies_exactly(self):
        # (q^(2^40) + Q0^(-2^40))(q - 1): the exponents span more than 2^41,
        # so the packed fields must widen for this call.  Run with and
        # without -O: no assert guards the result.
        code = (
            "from ariki.exactalg import MultiLaurent, product_divide\n"
            "q_minus_1 = MultiLaurent(1, {(1, 0): 1, (0, 0): -1})\n"
            "wide = MultiLaurent(1, {(2**40, 0): 1, (0, -2**40): 1})\n"
            "print(product_divide(1, [wide, q_minus_1]) == wide * q_minus_1)\n"
        )
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
            assert proc.stdout == "True\n", (flags, proc.stderr)

    def test_product_divide_matches_chain(self):
        l = 1
        fs = [q_poly((1, 1), (0, -1)), q_poly((2, 1), (0, 1)), q_poly((0, 3))]
        chained = MultiLaurent.term(l, 1)
        for f in fs:
            chained = chained * f
        assert product_divide(l, fs) == chained

    @given(factor_lists())
    @settings(max_examples=300, deadline=None)
    def test_product_divide_matches_chained_mul(self, case):
        l, factors = case
        chained = MultiLaurent.term(l, 1)
        for f in factors:
            chained = chained * f
        product = product_divide(l, factors)
        assert product == chained
        # Terms come out in render order: descending graded-lex.
        assert list(product.terms) == sorted(product.terms, key=_graded_lex, reverse=True)
        assert product.render() == _ref_render(product)

    @given(kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_product_divide_edge_cases_match_chained_mul(self, case):
        l, factors = case
        chained = MultiLaurent.term(l, 1)
        for f in factors:
            chained = chained * f
        product = product_divide(l, factors)
        assert product == chained
        assert list(product.terms) == sorted(product.terms, key=_graded_lex, reverse=True)

    @given(nonzero_factor_lists())
    @settings(max_examples=300, deadline=None)
    def test_Q_degree_span_is_the_sum_of_the_factors_spans(self, case):
        # No zero divisors: _product_grid sizes its grid from this sum
        # before it multiplies.
        l, factors = case
        assert _Q_span(product_divide(l, factors)) == sum(map(_Q_span, factors))

    def test_one_multiplication_per_grid(self, monkeypatch):
        # A count, not a time: the grid's layout is chosen before the
        # factors are multiplied, so no product of the fuzz suite is
        # multiplied twice.
        calls = Counter()
        for name in ("_multiply", "_product_grid"):
            def counting(*args, original=getattr(exactalg, name), name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(exactalg, name, counting)
        assert verify_fuzz().passed
        assert calls == {"_multiply": 500, "_product_grid": 500}

    @given(kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_render_product_matches_term_by_term_rendering(self, case):
        l, factors = case
        assert render_product(l, factors) == _ref_render(product_divide(l, factors))

    def test_dense_rows_of_unequal_Q_degree(self):
        # Rows of Q-degree 1 to 4, each a run of powers of q: the term
        # counts multiply to 256 against 10 powers of q, so q stays in the
        # rows, and each row is shifted by its Q-degree in the grid.
        run = MultiLaurent(2, {(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 3, (3, 0, 0): 1})
        mixed = MultiLaurent(2, {(1, 1, 0): 1, (0, 1, 0): 1, (1, 2, 1): 1, (0, 2, 1): -2})
        low = MultiLaurent(2, {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 1): 1, (1, 0, 1): -1})
        product = product_divide(2, [run, mixed, low, run])
        assert product == run * mixed * low * run
        assert list(product.terms) == sorted(product.terms, key=_graded_lex, reverse=True)

    @pytest.mark.parametrize("edge", _FIELD_EDGES)
    def test_coefficients_at_word_edges(self, edge):
        # The bound of a one-term factor is its coefficient, which then
        # fills the field chosen for it; the other products cross the next
        # edge by a little.
        for c in (edge - 1, edge, -edge, -edge - 1):
            alone = MultiLaurent(2, {(3, -1, 0): c})
            spread = MultiLaurent(2, {(2, 1, -1): c, (0, 0, 0): -c, (-1, 0, 1): 1})
            q_minus_1 = MultiLaurent(2, {(1, 0, 0): 1, (0, 0, 0): -1})
            cross = MultiLaurent(2, {(1, 1, -1): 1, (0, 0, 0): -1})
            for factors in ([alone], [spread], [spread, q_minus_1], [cross, spread, spread], [alone, spread]):
                chained = MultiLaurent.term(2, 1)
                for f in factors:
                    chained = chained * f
                product = product_divide(2, factors)
                assert product == chained, (c, factors)
                assert list(product.terms) == sorted(product.terms, key=_graded_lex, reverse=True)

    def test_wide_q_spread_over_several_Q_monomials(self):
        # (q^(2^40) Q0 + 1)(q Q0^(-1) - 1): q spreads over 2^40 and the
        # product has three Q-monomials.  Rows of 2^40 fields would not fit
        # in memory, so this returns quickly only if q moves into the key.
        code = (
            "from ariki.exactalg import MultiLaurent, product_divide\n"
            "a = MultiLaurent(1, {(2**40, 1): 1, (0, 0): 1})\n"
            "b = MultiLaurent(1, {(1, -1): 1, (0, 0): -1})\n"
            "p = product_divide(1, [a, b])\n"
            "print(p == a * b, list(p.terms) == sorted(p.terms, key=lambda e: (sum(e), e), reverse=True))\n"
        )
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=30)
            assert proc.stdout == "True True\n", (flags, proc.stderr)

    def test_wide_Q_degree_spread_under_dense_q(self):
        # (1 + q + q^2 + q^3)^4 (1 + Q0^(2^40)): 512 term products against
        # 13 powers of q, but the rows' Q-degrees lie 2^40 apart, and a grid
        # skewed by them would not fit in memory, so q must move into the
        # key.  The child's address space is capped, so a wrong choice fails
        # with MemoryError instead of exhausting the machine.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from ariki.exactalg import MultiLaurent, product_divide, render_product\n"
            "run = MultiLaurent(1, {(i, 0): 1 for i in range(4)})\n"
            "wide = MultiLaurent(1, {(0, 0): 1, (0, 2**40): 1})\n"
            "factors = [run, run, run, run, wide]\n"
            "p = product_divide(1, factors)\n"
            "print(p == run * run * run * run * wide, render_product(1, factors) == p.render())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
        assert proc.stdout == "True True\n", proc.stderr


def _graded_lex(exps):
    return (sum(exps), exps)


def _ref_render(f):
    """Term-by-term rendering: sort by a key function, then format each factor of each term."""
    if not f.terms:
        return "0"
    parts = []
    names = ["q"] + [f"Q{j}" for j in range(f.l)]
    for exps in sorted(f.terms, key=_graded_lex, reverse=True):
        c = f.terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@st.composite
def render_cases(draw):
    """Any MultiLaurent with l <= 4: exponents in [-4, 4], mostly 0 and 1, unit and larger
    coefficients, the constant term present or not, the leading term of either sign."""
    l = draw(st.integers(0, 4))
    exponent = st.one_of(st.sampled_from([0, 0, 1]), st.integers(-4, 4))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-120, 120))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * (l + 1)), coeff, max_size=12))
    constant = (0,) * (l + 1)
    if draw(st.booleans()):
        terms[constant] = draw(coeff)
    else:
        terms.pop(constant, None)
    f = MultiLaurent(l, terms)
    if f.terms and draw(st.booleans()):
        lead = max(f.terms, key=_graded_lex)
        f.terms[lead] = -abs(f.terms[lead])
    return f


class TestRender:
    @given(render_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_term_by_term_rendering(self, f):
        assert f.render() == _ref_render(f)

    def test_coefficients_near_one(self):
        f = MultiLaurent(1, {(1, 0): 11, (0, 1): -1, (0, 0): -1, (-1, -1): 1, (2, -1): -21})
        assert f.render() == _ref_render(f) == "-21*q^2*Q0^-1 + 11*q - Q0 - 1 + q^-1*Q0^-1"
        assert MultiLaurent(0, {(0,): -1}).render() == "-1"
        assert MultiLaurent(0, {(1,): -1, (0,): 1}).render() == "-q + 1"

    def test_golden(self):
        f = MultiLaurent(2, {(2, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1})
        assert f.render() == "q^2*Q0 - Q1 + 1"
        assert MultiLaurent(2).render() == "0"
        assert MultiLaurent.term(2, 1).render() == "1"
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
def _ref_zeta(n, a):
    return CyclotomicInt(n, _ref_reduce([0] * a + [1], n))


def _ref_specialise(f, theta):
    # The per-term sum of c * zeta^a * u^b.
    n = theta.n
    out = CycloLaurent(n)
    for exps, c in f.terms.items():
        a = exps[0] * theta.q_image[0] + sum(e * aj for e, (aj, _) in zip(exps[1:], theta.Q_images))
        b = exps[0] * theta.q_image[1] + sum(e * bj for e, (_, bj) in zip(exps[1:], theta.Q_images))
        zeta_a = _ref_zeta(n, a % n)
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
    kind = draw(st.sampled_from(("q moves in u", "no u-images", "no zeta-images")))
    if kind == "q moves in u":
        images[0] = (images[0][0], draw(st.integers(1, 3)))
    elif kind == "no u-images":
        # Every term lands in one row, as under spec_map_root_of_unity.
        images = [(a, 0) for a, _ in images]
    else:
        images = [(0, b) for _, b in images]
    return MultiLaurent(l, terms), SpecMap(n=n, q_image=images[0], Q_images=tuple(images[1:]))


@st.composite
def vanishing_rows(draw):
    """A map with q -> a primitive m-th root of unity and no u-image for q, and
    a polynomial whose rows hold multiples of 1 + q + ... + q^(m-1): nonzero
    modulo x^N - 1, zero modulo Phi_N.  A few free terms may survive above,
    below or among them."""
    l = draw(st.integers(1, 3))
    n = draw(st.sampled_from([2, 3, 4, 6, 9, 12, 30, 202]))
    m = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    Q_images = tuple(draw(st.tuples(st.integers(0, 2 * n), st.integers(-3, 3))) for _ in range(l))
    coefficient = st.integers(-5, 5).filter(bool)
    terms: dict = {}
    for alpha, c in draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * l), coefficient, max_size=4)).items():
        for i in range(m):
            terms[(i,) + alpha] = c
    for exps, c in draw(st.dictionaries(st.tuples(*[st.integers(-4, 4)] * (l + 1)), coefficient, max_size=3)).items():
        terms[exps] = terms.get(exps, 0) + c
    return MultiLaurent(l, terms), SpecMap(n=n, q_image=(n // m, 0), Q_images=Q_images)


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

    @given(st.one_of(laurent_and_map(), vanishing_rows()))
    @settings(max_examples=150, deadline=None)
    def test_u_valuation_is_the_valuation_of_the_image(self, case):
        f, theta = case
        image = _ref_specialise(f, theta)
        assert specialise(f, theta) == image
        assert u_valuation(f, theta) == (None if image.is_zero() else image.valuation())

    def test_u_valuation_reduces_rows_up_to_the_first_survivor(self, monkeypatch):
        # q -> zeta_2 = -1 and Q_0 -> u: the rows at u^0 and u^1 are 1 + q and
        # 2 + 2q, zero modulo Phi_2, and the row at u^2 survives.
        import ariki.exactalg as exactalg

        theta = SpecMap(n=2, q_image=(1, 0), Q_images=((0, 1),))
        vanishing = {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2}
        f = MultiLaurent(1, {**vanishing, (0, 2): 3, (1, 3): 1, (0, 5): -4})
        honest, reduced = exactalg._reduce_mod_cyclotomic, []

        def counting(coeffs, n):
            reduced.append(list(coeffs))
            return honest(coeffs, n)

        monkeypatch.setattr(exactalg, "_reduce_mod_cyclotomic", counting)
        assert u_valuation(f, theta) == 2
        assert reduced == [[1, 1], [2, 2], [3, 0]]
        assert u_valuation(MultiLaurent(1, vanishing), theta) is None
        assert u_valuation(MultiLaurent(1), theta) is None
        with pytest.raises(DomainError, match="map has 1 Q-images, polynomial has 2"):
            u_valuation(MultiLaurent.term(2, 1), theta)


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
        z4 = CyclotomicInt.from_powers(4, [0, 1])
        assert z4 * z4 == CyclotomicInt.from_powers(4, [-1])
        z3 = CyclotomicInt.from_powers(3, [0, 1])
        assert z3 * z3 == CyclotomicInt(3, (-1, -1))

    def test_zeta_order(self):
        for n in range(1, 25):
            acc = CyclotomicInt.from_powers(n, [1])
            z = CyclotomicInt.from_powers(n, [0, 1])
            for _ in range(n):
                acc = acc * z
            assert acc == CyclotomicInt.from_powers(n, [1])

    def test_mixed_conductors_rejected(self):
        with pytest.raises(DomainError):
            CyclotomicInt.from_powers(3, [1]) + CyclotomicInt.from_powers(4, [1])


def _ref_cyclo_render(x):
    """Term-by-term rendering of a CyclotomicInt, each term's sign and magnitude spelled out."""
    parts = []
    for e, c in enumerate(x.coeffs):
        if c:
            mono = "" if e == 0 else "z" if e == 1 else f"z^{e}"
            body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
            parts.append((body if c > 0 else f"-{body}") if not parts else (f"+ {body}" if c > 0 else f"- {body}"))
    return " ".join(parts) or "0"


def _ref_laurent_render(f):
    parts = [f"({f.terms[e].render()})" + ("" if e == 0 else "*u" if e == 1 else f"*u^{e}")
             for e in sorted(f.terms, reverse=True)]
    return " + ".join(parts) or "0"


@st.composite
def cyclo_laurents(draw):
    n = draw(st.integers(1, 30))
    coeff = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50))
    phi = _modulus(n)[0]
    element = st.lists(coeff, min_size=phi, max_size=phi).map(lambda cs: CyclotomicInt(n, cs))
    return CycloLaurent(n, draw(st.dictionaries(st.integers(-5, 5), element, max_size=4)))


class TestCycloRendering:
    def test_examples(self):
        assert CyclotomicInt(4, (1, -1)).render() == "1 - z"
        assert CyclotomicInt(6, (-1, 3)).render() == "-1 + 3*z"
        assert CyclotomicInt(5, (0, -1, 0, -2)).render() == "-z - 2*z^3"
        assert CyclotomicInt.from_powers(3, ()).render() == "0"
        one, z = CyclotomicInt.from_powers(4, [1]), CyclotomicInt.from_powers(4, [0, 1])
        f = CycloLaurent(4, {-2: one + z, 0: -z, 1: one})
        assert f.render() == "(1)*u + (-z) + (1 + z)*u^-2"
        assert CycloLaurent(4).render() == "0"

    @given(cyclo_laurents())
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term_rendering(self, f):
        assert f.render() == _ref_laurent_render(f)
        for x in f.terms.values():
            assert x.render() == _ref_cyclo_render(x)


class TestCycloLaurent:
    def test_valuation(self):
        one = CyclotomicInt.from_powers(1, [1])
        f = CycloLaurent(1, {-1: one, 0: one})
        assert f.valuation() == -1
        assert CycloLaurent(1, {0: CyclotomicInt.from_powers(1, [5])}).valuation() == 0
        g = CycloLaurent(1, {3: one, 5: -one})
        assert g.valuation() == 3

    def test_valuation_of_zero_rejected(self):
        with pytest.raises(DomainError):
            CycloLaurent(4).valuation()

    def test_zero_coefficients_dropped(self):
        z = CyclotomicInt.from_powers(4, ())
        assert CycloLaurent(4, {2: z}).is_zero()


class TestSpecialise:
    def test_q_to_u(self):
        theta = SpecMap(n=1, q_image=(0, 1), Q_images=((0, 0),))
        f = q_poly((1, 1), (0, 1))
        out = specialise(f, theta)
        one = CyclotomicInt.from_powers(1, [1])
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
            specialise(MultiLaurent.term(2, 1), theta)
