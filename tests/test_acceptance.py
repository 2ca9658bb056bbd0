"""Acceptance criteria, one test per criterion.

Each test drives the corresponding verification suite at its stated scope
and exact-equality tolerance, prints one PASS/FAIL line, and enforces the
expected runtime budget and check count.
"""

from ariki.verify import (
    verify_avalues,
    verify_defect0,
    verify_dominance,
    verify_example_basic_set,
    verify_example_orbits,
    verify_formulas,
    verify_fuzz,
    verify_lemmas,
    verify_semisimple,
)


def _report(number: int, title: str, result, budget: float, checks: int):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number} {title}: {status} "
          f"({result.checks} checks in {result.seconds:.1f}s, budget {budget:.0f}s)")
    assert result.passed, result.failure
    assert result.checks == checks, f"{result.checks} checks, expected {checks}"
    assert result.seconds < budget, f"runtime {result.seconds:.1f}s over budget {budget}s"


def test_criterion_1_formula_equivalence():
    # cancellation-free == quotient == beta-number formula, exhaustively on
    # l <= 3, n <= 4 and l <= 4, n <= 3, with L in {len, len+1, len+3}
    _report(1, "formula equivalence", verify_formulas(max_l=3, max_n=4), 60, 780)


def test_criterion_2_lemma_suite():
    # rim-content identity for all |lam| <= 6 and all k; the alpha identity
    # on all 3-component multipartitions of rank 6
    _report(2, "lemma suite", verify_lemmas(max_n=6), 30, 298)


def test_criterion_3_semisimplicity_grid():
    # product criterion vs all-Schur-elements verdict on >= 50 parameter sets
    _report(3, "semisimplicity criterion", verify_semisimple(), 60, 63)


def test_criterion_4_defect0_equivalence():
    # divisibility test vs cyclotomic zero test, l <= 3, n <= 4,
    # e in {2,3,4,6}, 5 random charge vectors each
    _report(4, "defect-0 equivalence", verify_defect0(max_l=3, max_n=4), 60, 2720)


def test_criterion_5_a_value_triple_agreement():
    # three a-value routes agree (10 random charge sets), plus rotation
    # invariance for periodic charges
    _report(5, "a-value triple agreement", verify_avalues(max_l=3, max_n=4), 120, 5120)


def test_criterion_6_basic_set_worked_example():
    # G(3,1,2), e=12, k=1, r=6, charges (3,-1,-2): classes, crystal layers
    # and the four-element basic set, all exact
    _report(6, "G(3,1,2) basic set", verify_example_basic_set(), 5, 16)


def test_criterion_7_gpn_worked_example():
    # G(3,3,2), e=12, k=1, r=2: six-element ambient set, two orbits of
    # size 3 with trivial stabilizers
    _report(7, "G(3,3,2) orbit labelling", verify_example_orbits(), 5, 5)


def test_criterion_8_property_suites():
    # kappa dominance vs strict a-value inequality (exhaustive), the
    # multiset concatenation lemma (1000 randomized instances against raw
    # partial sums), and the exact-arithmetic fuzz suites (>= 1500)
    dominance = verify_dominance(max_l=3, max_n=4)
    fuzz = verify_fuzz()
    _report(8, "dominance properties", dominance, 120, 11830)
    _report(8, "exact-arithmetic fuzz", fuzz, 120, 3148)
