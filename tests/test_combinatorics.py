import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ariki.combinatorics as combinatorics
from ariki.combinatorics import (
    EMPTY,
    MAX_SYMBOL_ENTRIES,
    ChargeData,
    Dominance,
    Multipartition,
    Partition,
    _scaled_rows,
    _weighted_sum,
    a_value_combinatorial,
    a_value_hook_formula,
    canonical_key,
    conjugate,
    dominates,
    enumerate_multipartitions,
    gen_hook_length,
    l_symbol,
    min_symbol_size,
    mp,
    multipartition_from_json,
    multipartition_to_json,
    multiset_dominates,
    n_function,
    orbit_and_stabilizer,
    partition_layers,
    partitions_of,
    rebar,
    scaled_kappa,
    sigma_action,
)
from ariki.errors import DomainError

partition_parts = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def all_partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


def _partition_key(p):
    """The canonical order of partitions: that of one-component multipartitions."""
    return canonical_key(Multipartition((p,)))


class TestPartitionBasics:
    def test_validation(self):
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((2, 0))

    def test_conjugate_examples(self):
        assert conjugate(Partition((4, 1))).parts == (2, 1, 1, 1)
        assert conjugate(Partition(())).parts == ()
        assert conjugate(Partition((2, 2))).parts == (2, 2)

    def test_conjugate_involution_exhaustive(self):
        for p in all_partitions_up_to(8):
            assert conjugate(conjugate(p)) == p

    def test_n_function_examples(self):
        assert n_function(Partition(())) == 0
        assert n_function(Partition((1, 1, 1))) == 3
        assert n_function(Partition((4, 2, 1, 1))) == 7

    def test_n_function_conjugate_form(self):
        # Independent oracle: half the sum of (c-1)c over conjugate parts.
        for p in all_partitions_up_to(8):
            conj = conjugate(p)
            assert n_function(p) * 2 == sum((c - 1) * c for c in conj.parts)


class TestHooks:
    def test_examples(self):
        two = Partition((2,))
        assert gen_hook_length(two, two, 1, 1) == 2
        assert gen_hook_length(Partition((1,)), Partition(()), 1, 1) == 0

    def test_matches_classical_hook(self):
        # arm + leg + 1, counted directly from the diagram
        for p in all_partitions_up_to(6):
            for (i, j) in p.nodes():
                arm = p.parts[i - 1] - j
                leg = sum(1 for row in p.parts[i:] if row >= j)
                assert gen_hook_length(p, p, i, j) == arm + leg + 1

    def test_outside_node_rejected(self):
        with pytest.raises(DomainError):
            gen_hook_length(Partition((2,)), Partition((2,)), 2, 1)

    def test_can_be_nonpositive_for_distinct_shapes(self):
        assert gen_hook_length(Partition((1,)), Partition(()), 1, 1) == 0


class TestRebar:
    def test_example(self):
        assert rebar(mp([4, 1], [], [2, 1])).parts == (4, 2, 1, 1)
        assert rebar(mp([], [])).parts == ()
        assert rebar(mp([1], [1], [1])).parts == (1, 1, 1)

    def test_permutation_invariance(self):
        lam = mp([3, 1], [2], [], [1, 1])
        for perm in itertools.permutations(range(4)):
            shuffled = Multipartition(tuple(lam.components[i] for i in perm))
            assert rebar(shuffled) == rebar(lam)


class TestLSymbol:
    def test_examples(self):
        assert l_symbol(mp([1], []), 1) == ((1,), (0,))
        assert l_symbol(mp([], []), 2) == ((1, 0), (1, 0))
        assert l_symbol(mp([2, 1], []), 3)[0] == (4, 2, 0)

    def test_too_small(self):
        with pytest.raises(DomainError):
            l_symbol(mp([2, 1], []), 1)


class TestShiftedSymbols:
    # Symbols, kappa and n_m are all r times their values, as ints.
    def test_symbol_example(self):
        charge = ChargeData(1, (0, 0))
        assert _scaled_rows(mp([1], [1]), charge, 1) == [(1,), (1,)]
        ks = scaled_kappa(mp([1], [1]), charge, 1)
        assert ks == (1, 1)
        assert _weighted_sum(ks) == 1

    def test_empty_symbol_example(self):
        charge = ChargeData(1, (0, 0))
        ks = scaled_kappa(mp([], []), charge, 2)
        assert ks == (1, 1, 0, 0)
        assert _weighted_sum(ks) == 1

    def test_fractional_charges(self):
        # charges (3,-1)/6: rows at size 2 are (5/2, 1/2) and (11/6,), times 6
        charge = ChargeData(6, (3, -1))
        assert _scaled_rows(mp([1], [1]), charge, 2) == [(15, 3), (11,)]

    def test_size_too_small_rejected(self):
        with pytest.raises(DomainError):
            _scaled_rows(mp([1, 1, 1], []), ChargeData(1, (0, 0)), 2)

    def test_huge_symbol_refused_before_any_row_is_built(self, monkeypatch):
        # The widths are size + c // r; none of the rows' ints is made.
        monkeypatch.setattr(combinatorics, "range", lambda *a: pytest.fail("a row was built"), raising=False)
        for charges, count in (((10**20,), 10**20 + 2), ((MAX_SYMBOL_ENTRIES, 0), MAX_SYMBOL_ENTRIES + 4)):
            lam = Multipartition((EMPTY,) * len(charges))
            with pytest.raises(DomainError) as exc:
                _scaled_rows(lam, ChargeData(1, charges), 2)
            assert str(exc.value) == (
                f"the shifted symbol would have {count} entries, above the cap of {MAX_SYMBOL_ENTRIES}"
            )

    def test_symbol_at_the_cap_is_built(self):
        charge = ChargeData(1, (MAX_SYMBOL_ENTRIES - 4, 0))
        rows = _scaled_rows(mp([1], []), charge, 2)
        assert sum(map(len, rows)) == MAX_SYMBOL_ENTRIES
        assert a_value_combinatorial(mp([1], []), charge) == a_value_hook_formula(mp([1], []), charge)

    def test_a_value_invariant_under_size_shift(self):
        charges = [
            ChargeData(1, (0, 0)),
            ChargeData(6, (3, -1)),
            ChargeData(3, (-4, 2)),
            ChargeData(2, (5, -5)),
        ]
        empty = mp([], [])
        for charge in charges:
            for lam in enumerate_multipartitions(2, 3):
                base = max(min_symbol_size(lam, charge), min_symbol_size(empty, charge))
                values = []
                for size in (base, base + 1, base + 2):
                    # r * (n_m(lam) - n_m(empty)), each r * n_m summed from the scaled kappa.
                    values.append(
                        _weighted_sum(scaled_kappa(lam, charge, size))
                        - _weighted_sum(scaled_kappa(empty, charge, size))
                    )
                assert values[0] == values[1] == values[2]
                assert values[0] == a_value_combinatorial(lam, charge)


class TestAValues:
    def test_combinatorial_examples(self):
        assert a_value_combinatorial(mp([1, 1]), ChargeData(1, (0,))) == 1
        assert a_value_combinatorial(mp([], [], []), ChargeData(2, (1, 0, -1))) == 0
        for n in range(1, 7):
            assert a_value_combinatorial(mp([n]), ChargeData(1, (0,))) == 0

    def test_single_row_brute_force(self):
        # Same value out of a directly-built symbol at a fixed larger size.
        charge = ChargeData(1, (0,))
        for n in range(1, 7):
            size = n + 3
            lam_entries = sorted((Fraction(v) for v in [n + size - 1] + [size - i for i in range(2, size + 1)]), reverse=True)
            empty_entries = sorted((Fraction(size - i) for i in range(1, size + 1)), reverse=True)
            n_m = lambda es: sum((i - 1) * v for i, v in enumerate(es, start=1))
            assert a_value_combinatorial(mp([n]), charge) == n_m(lam_entries) - n_m(empty_entries)

    def test_hook_formula_examples(self):
        assert a_value_hook_formula(mp([1, 1]), ChargeData(1, (0,))) == 1
        assert a_value_hook_formula(mp([], []), ChargeData(1, (0, 0))) == 0
        assert a_value_hook_formula(mp([1], []), ChargeData(1, (0, 0))) == 0

    def test_routes_agree_random_charges(self):
        import random

        rng = random.Random(97)
        for l in (1, 2, 3):
            lams = [lam for n in range(0, 5) for lam in enumerate_multipartitions(l, n)]
            for _ in range(20):
                charge = ChargeData(rng.randint(1, 6), tuple(rng.randint(-6, 6) for _ in range(l)))
                for lam in lams:
                    assert a_value_combinatorial(lam, charge) == a_value_hook_formula(lam, charge)


class TestDominance:
    def test_examples(self):
        assert dominates((2, 0), (1, 1)) is Dominance.STRICT
        assert dominates((2, 1), (2, 1)) is Dominance.EQUAL
        assert dominates((3, 0, 1), (2, 2, 0)) is Dominance.INCOMPARABLE
        assert dominates((2, 2, 0, 0), (3, 1)) is Dominance.INCOMPARABLE

    def test_total_mismatch(self):
        with pytest.raises(DomainError):
            dominates((2, 1), (1, 1))

    def test_multiset_examples(self):
        assert multiset_dominates([2, 1, 3], [1, 2, 3])
        assert multiset_dominates([3, 1], [2, 2])
        assert not multiset_dominates([2, 2], [3, 1])
        with pytest.raises(DomainError):
            multiset_dominates([1, 2], [3])
        with pytest.raises(DomainError):
            multiset_dominates([1, 2], [1, 1])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.fractions(min_value=0, max_value=12), min_size=1, max_size=4),
                st.lists(st.fractions(min_value=0, max_value=12), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_concatenation_lemma(self, raw_pairs):
        # Keep only component pairs satisfying the hypothesis.
        pairs = []
        for xs, ys in raw_pairs:
            if len(xs) != len(ys) or sum(xs) != sum(ys):
                ys = xs
            xs = sorted(xs, reverse=True)
            ys = sorted(ys, reverse=True)
            run = 0
            ok = True
            for a, b in zip(xs, ys):
                run += a - b
                if run < 0:
                    ok = False
                    break
            if not ok:
                ys = xs
            pairs.append((xs, ys))
        flat_x = [v for xs, _ in pairs for v in xs]
        flat_y = [v for _, ys in pairs for v in ys]
        assert multiset_dominates(flat_x, flat_y)


# ---------------------------------------------------------------------------
# The Fraction-valued symbol code that the scaled-integer kernel replaced,
# kept as a reference.


def _ref_min_symbol_size(m, charge):
    s = m.length + 1
    for c, mj in zip(m.components, charge.m):
        f = math.floor(mj)
        s = max(s, c.length - f, 1 - f)
    return s


def _ref_symbol_rows(m, charge, size):
    if size < 1:
        raise DomainError("symbol size must be >= 1")
    rows = []
    for c, mj in zip(m.components, charge.m):
        width = size + math.floor(mj)
        if width < c.length or width < 0:
            raise DomainError(
                f"symbol size {size} leaves a row of width {width} for a component of length {c.length}"
            )
        rows.append(tuple(Fraction(c.part(i) - i + size) + mj for i in range(1, width + 1)))
    for row in rows:
        for v in row:
            if v < 0:
                raise DomainError(f"negative symbol entry {v}; size {size} is too small")
    return tuple(rows)


def _ref_kappa(m, charge, size):
    entries = sorted((v for row in _ref_symbol_rows(m, charge, size) for v in row), reverse=True)
    return tuple(entries), sum(((i - 1) * v for i, v in enumerate(entries, start=1)), Fraction(0))


def _ref_a_value_combinatorial(m, charge):
    empty = Multipartition((EMPTY,) * m.level)
    size = max(_ref_min_symbol_size(m, charge), _ref_min_symbol_size(empty, charge))
    return charge.r * (_ref_kappa(m, charge, size)[1] - _ref_kappa(empty, charge, size)[1])


def _ref_a_value_hook_formula(m, charge):
    ms = charge.m
    total = Fraction(n_function(rebar(m)))
    for s, comp in enumerate(m.components):
        for (i, j) in comp.nodes():
            for t, other in enumerate(m.components):
                if t != s:
                    h = gen_hook_length(comp, other, i, j) + ms[s] - ms[t]
                    if h < 0:
                        total -= h
    return charge.r * total


def _ref_entries(x):
    return tuple(Fraction(v) for v in x)


def _ref_dominates(x, y):
    xs, ys = _ref_entries(x), _ref_entries(y)
    width = max(len(xs), len(ys))
    xs = xs + (Fraction(0),) * (width - len(xs))
    ys = ys + (Fraction(0),) * (width - len(ys))
    if sum(xs) != sum(ys):
        raise DomainError("dominance is only defined for sequences with equal totals")
    if xs == ys:
        return Dominance.EQUAL
    run_x = run_y = Fraction(0)
    for a, b in zip(xs, ys):
        run_x += a
        run_y += b
        if run_x < run_y:
            return Dominance.INCOMPARABLE
    return Dominance.STRICT


def _ref_multiset_dominates(x, y):
    xs = sorted((Fraction(v) for v in x), reverse=True)
    ys = sorted((Fraction(v) for v in y), reverse=True)
    if len(xs) != len(ys):
        raise DomainError("multiset dominance needs equal cardinalities")
    if sum(xs) != sum(ys):
        raise DomainError("multiset dominance needs equal sums")
    run = Fraction(0)
    for a, b in zip(xs, ys):
        run += a - b
        if run < 0:
            return False
    return True


def _outcome(fn, *args):
    """The value fn returns, or the text of the DomainError it raises."""
    try:
        return "value", fn(*args)
    except DomainError as exc:
        return "error", str(exc)


@st.composite
def charged_multipartitions(draw, max_l=3, max_n=5, max_charge=6, max_r=6):
    l = draw(st.integers(1, max_l))
    lam = draw(st.sampled_from(enumerate_multipartitions(l, draw(st.integers(0, max_n)))))
    charges = draw(st.lists(st.integers(-max_charge, max_charge), min_size=l, max_size=l))
    return lam, ChargeData(draw(st.integers(1, max_r)), tuple(charges))


entries = st.one_of(
    st.lists(st.integers(-6, 12), max_size=6),
    st.lists(st.fractions(min_value=-6, max_value=12, max_denominator=12), max_size=6),
)


@st.composite
def sequence_pairs(draw):
    """x and a y that is often a rearrangement of x with mass moved about."""
    x = draw(entries)
    if not x or draw(st.booleans()):
        return x, draw(entries)
    y = list(x)
    if draw(st.booleans()):
        y = draw(st.permutations(y))
    for i, j, t in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)), max_size=4)):
        y[i % len(y)] += t
        y[j % len(y)] -= t
    return x, y + [0] * draw(st.integers(0, 2))


class TestScaledIntegerKernel:
    @given(charged_multipartitions(), st.integers(-1, 3))
    @settings(max_examples=300, deadline=None)
    def test_symbols_and_a_values_match_fractions(self, case, offset):
        lam, charge = case
        base = min_symbol_size(lam, charge)
        assert base == _ref_min_symbol_size(lam, charge)
        assert a_value_combinatorial(lam, charge) == _ref_a_value_combinatorial(lam, charge)
        assert a_value_hook_formula(lam, charge) == _ref_a_value_hook_formula(lam, charge)
        assert type(a_value_combinatorial(lam, charge)) is type(a_value_hook_formula(lam, charge)) is int
        # Sizes below the minimum either build r times the same symbol or fail alike.
        r = charge.r
        for size in (base + offset, base - 1 - offset):
            ref = _outcome(_ref_symbol_rows, lam, charge, size)
            got = _outcome(_scaled_rows, lam, charge, size)
            assert got[0] == ref[0]
            if ref[0] == "error":
                assert got[1] == ref[1] == _outcome(scaled_kappa, lam, charge, size)[1]
                continue
            assert got[1] == [tuple(r * v for v in row) for row in ref[1]]
            ref_entries, ref_n_m = _ref_kappa(lam, charge, size)
            ks = scaled_kappa(lam, charge, size)
            assert ks == tuple(r * v for v in ref_entries)
            assert _weighted_sum(ks) == r * ref_n_m

    @given(charged_multipartitions(max_l=4, max_n=4, max_charge=30, max_r=7))
    @settings(max_examples=300, deadline=None)
    def test_minimal_size_is_common_with_the_empty_one(self, case):
        # a_value_combinatorial reads n_m(empty) at lam's minimal size, so that
        # size must be at least the empty multipartition's: max(1, 1 - floor(c_j / r)).
        lam, charge = case
        empty = Multipartition((EMPTY,) * lam.level)
        empty_size = max(1, *(1 - c // charge.r for c in charge.charges))
        assert min_symbol_size(lam, charge) >= min_symbol_size(empty, charge) == empty_size
        assert a_value_combinatorial(lam, charge) == _ref_a_value_combinatorial(lam, charge)

    @given(sequence_pairs())
    @settings(max_examples=400, deadline=None)
    def test_dominance_matches_fractions(self, pair):
        x, y = pair
        for a, b in ((x, y), (tuple(x), tuple(y)), (iter(x), iter(y))):
            assert _outcome(dominates, a, b) == _outcome(_ref_dominates, x, y)
        expected = _outcome(_ref_multiset_dominates, x, y)
        assert _outcome(multiset_dominates, x, y) == expected
        assert _outcome(multiset_dominates, (v for v in x), tuple(y)) == expected

    def test_domain_errors_keep_their_text(self):
        cases = [
            (_scaled_rows, (mp([1, 1, 1], []), ChargeData(1, (0, 0)), 2),
             "symbol size 2 leaves a row of width 2 for a component of length 3"),
            (scaled_kappa, (mp([1], [1]), ChargeData(6, (3, -13)), 2),
             "symbol size 2 leaves a row of width -1 for a component of length 1"),
            (scaled_kappa, (mp([1]), ChargeData(1, (0,)), 0), "symbol size must be >= 1"),
            (dominates, ((2, 1), (1, 1)), "dominance is only defined for sequences with equal totals"),
            (dominates, ((Fraction(1, 2),), (1,)), "dominance is only defined for sequences with equal totals"),
            (multiset_dominates, ([1, 2], [3]), "multiset dominance needs equal cardinalities"),
            (multiset_dominates, ([1, 2], [1, 1]), "multiset dominance needs equal sums"),
        ]
        for fn, args, text in cases:
            with pytest.raises(DomainError) as exc:
                fn(*args)
            assert str(exc.value) == text

    def test_no_fraction_arithmetic_in_the_hot_loops(self, monkeypatch):
        # A count, not a wall time: neither the a-values nor dominance on int
        # sequences builds a Fraction.
        made = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(combinatorics, "Fraction", Counting)
        charge = ChargeData(6, (3, -1, -2))
        lams = enumerate_multipartitions(3, 4)
        for fn in (a_value_combinatorial, a_value_hook_formula):
            for lam in lams:
                made.clear()
                fn(lam, charge)
                assert len(made) == 0, (fn.__name__, lam)
        made.clear()
        kappas = [scaled_kappa(lam, charge, 6) for lam in lams]
        results = [dominates(x, y) for x in kappas for y in kappas]
        assert multiset_dominates([6, 1, 2], [3, 3, 3]) and not multiset_dominates([2, 2], [3, 1])
        assert made == []
        assert results.count(Dominance.EQUAL) == len(lams) and Dominance.STRICT in results

    def test_empty_part_built_once_per_charge_and_size(self, monkeypatch):
        # A count, not a wall time: one scaled kappa per multipartition, plus
        # one per distinct (charge, minimal size) for the empty multipartition.
        real = combinatorics.scaled_kappa
        calls = []

        def counting(m, charge, size):
            calls.append(m)
            return real(m, charge, size)

        monkeypatch.setattr(combinatorics, "scaled_kappa", counting)
        combinatorics._empty_part.cache_clear()
        charges = [ChargeData(6, (3, -1, -2)), ChargeData(1, (0, 4, -7)), ChargeData(6, (3, -1, -2))]
        lams = [lam for n in range(5) for lam in enumerate_multipartitions(3, n)]
        keys = {(charge, min_symbol_size(lam, charge)) for charge in charges for lam in lams}
        for charge in charges:
            for lam in lams:
                assert a_value_combinatorial(lam, charge) == a_value_hook_formula(lam, charge), (lam, charge)
        assert len(calls) == len(charges) * len(lams) + len(keys)
        assert combinatorics._empty_part.cache_info().misses == len(keys)


class TestSigma:
    def test_rotation_example(self):
        assert sigma_action(mp([1], [1], []), 3, 1) == mp([], [1], [1])
        lam = mp([2], [1])
        assert sigma_action(lam, 1, 2) == lam

    def test_level_mismatch(self):
        with pytest.raises(DomainError):
            sigma_action(mp([1], [1]), 3, 1)

    def test_order_p(self):
        for l, p in ((2, 2), (3, 3), (4, 2), (4, 4)):
            d = l // p
            for n in range(0, 4):
                for lam in enumerate_multipartitions(l, n):
                    cur = lam
                    for _ in range(p):
                        cur = sigma_action(cur, p, d)
                    assert cur == lam

    def test_orbit_examples(self):
        orbit, stab = orbit_and_stabilizer(mp([1], [1], []), 3, 1)
        assert len(orbit) == 3 and stab == 1
        orbit, stab = orbit_and_stabilizer(mp([1], [1], [1]), 3, 1)
        assert len(orbit) == 1 and stab == 3
        orbit, stab = orbit_and_stabilizer(mp([2], []), 2, 1)
        assert set(orbit) == {mp([2], []), mp([], [2])} and stab == 1


class TestEnumeration:
    def test_order_l1(self):
        got = [m.components[0].parts for m in enumerate_multipartitions(1, 3)]
        assert got == [(3,), (2, 1), (1, 1, 1)]

    def test_order_l2(self):
        assert list(enumerate_multipartitions(2, 1)) == [mp([1], []), mp([], [1])]

    def test_count_oracle(self):
        # Sum over compositions of products of partition counts.
        pcount = [len(partitions_of(k)) for k in range(5)]
        expected = 0
        for a in range(5):
            for b in range(5 - a):
                c = 4 - a - b
                expected += pcount[a] * pcount[b] * pcount[c]
        got = enumerate_multipartitions(3, 4)
        assert expected == 51 == len(got)
        assert len(set(got)) == 51

    def test_sorted_canonically(self):
        # Both enumerations emit canonical order as they are built; neither sorts.
        for n in range(13):
            got = partitions_of(n)
            assert list(got) == sorted(got, key=_partition_key)
        for l in range(1, 5):
            for n in range(7):
                got = enumerate_multipartitions(l, n)
                assert list(got) == sorted(got, key=canonical_key), (l, n)


def _reference_partitions(n):
    """Partitions of n by recursion, largest part first and each part from its cap down: canonical order."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def _reference_multipartitions(l, n):
    """l-multipartitions of rank n by recursion over the components, in canonical order."""
    out = []

    def rec(idx, remaining, prefix):
        if idx == l - 1:
            out.extend(Multipartition(tuple(prefix) + (p,)) for p in _reference_partitions(remaining))
            return
        for k in range(remaining, -1, -1):
            for p in _reference_partitions(k):
                rec(idx + 1, remaining - k, prefix + [p])

    rec(0, n, [])
    return tuple(out)


class TestPartitionTable:
    # Oracles: the recursions the table replaced, and a multiplicity filter.
    def test_partitions_match_recursion(self):
        for n in range(21):
            assert partitions_of(n) == _reference_partitions(n), n

    def test_multipartitions_match_recursion(self):
        for l in range(1, 5):
            for n in range(8):
                assert enumerate_multipartitions(l, n) == _reference_multipartitions(l, n), (l, n)

    def test_capped_layers_filter_the_uncapped_table(self):
        for n in range(13):
            full = partition_layers(n)
            for cap in range(1, 7):
                layers = partition_layers(n, cap)
                assert len(layers) == n + 1
                for k, layer in enumerate(layers):
                    expected = [x for x in full[k] if all(x.count(p) <= cap for p in x)]
                    assert list(layer) == expected, (n, cap, k)
                    assert sorted(layer, key=lambda x: _partition_key(Partition(x))) == list(layer)

    def test_negative_rank_is_refused(self):
        for call in (lambda: partition_layers(-1), lambda: partitions_of(-1), lambda: partition_layers(-2, 3)):
            with pytest.raises(DomainError, match="cannot partition a negative integer"):
                call()


class TestJsonFormat:
    def test_roundtrip(self):
        lam = mp([2], [], [1, 1])
        text = multipartition_to_json(lam)
        assert text == "[[2],[],[1,1]]"
        assert multipartition_from_json(text) == lam

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            multipartition_from_json("[]")
        with pytest.raises(DomainError):
            multipartition_from_json("[[2,3]]")
        with pytest.raises(DomainError):
            multipartition_from_json("not json")

    @given(st.lists(partition_parts, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random(self, comps):
        lam = mp(*comps)
        assert multipartition_from_json(multipartition_to_json(lam)) == lam
