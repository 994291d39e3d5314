import random
from fractions import Fraction

import pytest

from qalt import montesinos
from qalt.diagram import generate_pretzel
from qalt.errors import HypothesisViolationError, InternalConsistencyError
from qalt.jones import determinant, determinant_goeritz
from qalt.montesinos import (
    MontesinosPresentation,
    continued_fraction,
    corollary26_obstruction,
    montesinos_crossing_number,
    montesinos_det,
    predicted_q_degree,
    pretzel_family_report,
    standard_form_check,
)
from qalt.qpoly import q_degree


def test_continued_fraction():
    assert continued_fraction(5, 2) == [2, 2]
    assert continued_fraction(7, 2) == [3, 2]
    assert continued_fraction(3, 1) == [3]
    assert sum(continued_fraction(5, 2)) == 4


def test_presentation_validation():
    with pytest.raises(HypothesisViolationError):
        MontesinosPresentation.make(1, [(4, 2)], (5, 2))  # gcd 2
    with pytest.raises(HypothesisViolationError):
        MontesinosPresentation.make(1, [(2, 1)], (3, 3))  # final not coprime
    with pytest.raises(HypothesisViolationError):
        MontesinosPresentation.make(1, [(1, 1)], (5, 2))  # a_i < 2
    MontesinosPresentation.make(0, [(5, 1), (4, 1)], (3, -1))  # pretzel-style


def test_montesinos_det_examples():
    m = MontesinosPresentation.make(1, [(2, 1), (2, 1)], (5, 2))
    assert montesinos_det(m) == 8
    for alpha in (3, 5, 7, 9):
        m2 = MontesinosPresentation.make(1, [(2, 1), (2, 1)], (alpha, 1))
        assert montesinos_det(m2) == 4
    with pytest.raises(HypothesisViolationError):
        montesinos_det(MontesinosPresentation.make(0, [(2, 1)], (5, 2)))


def test_both_determinant_expressions_agree_when_sum_is_one():
    rng = random.Random(8)
    unit_families = [
        [(2, 1), (2, 1)],
        [(3, 1), (3, 1), (3, 1)],
        [(2, 1), (4, 1), (4, 1)],
        [(2, 1), (3, 1), (6, 1)],
        [(4, 3), (4, 1)],  # 3/4 + 1/4
        [(3, 2), (3, 1)],  # 2/3 + 1/3
        [(5, 2), (5, 2), (5, 1)],  # 2/5+2/5+1/5
        [(6, 5), (6, 1)],
    ]
    checked = 0
    for _ in range(50):
        tangles = rng.choice(unit_families)
        assert sum(Fraction(b, a) for a, b in tangles) == 1
        beta = rng.randint(1, 5)
        alpha = beta * rng.randint(2, 7) + 1
        from math import gcd

        if gcd(alpha, beta) != 1:
            continue
        m = MontesinosPresentation.make(1, tangles, (alpha, beta))
        prod = 1
        for a, _ in tangles:
            prod *= a
        assert montesinos_det(m) == beta * prod
        checked += 1
    assert checked >= 40


def test_crossing_number():
    m = MontesinosPresentation.make(1, [(2, 1), (2, 1)], (5, 2))
    assert montesinos_crossing_number(m) == 1 + 2 + 2 + 4
    pretzel = MontesinosPresentation.make(0, [(5, 1), (4, 1)], (3, -1))
    assert montesinos_crossing_number(pretzel) == 12
    assert predicted_q_degree(pretzel) == 10
    assert q_degree(generate_pretzel([5, 4, -3])) == 10


def test_corollary26():
    rep = corollary26_obstruction([(2, 1), (2, 1)], beta=1, l=0, k=1)
    assert rep.det == 4
    assert rep.verdict == "NotQuasiAlternating"
    assert rep.threshold_k == 1
    for k in (1, 2, 5, 9):
        r = corollary26_obstruction([(2, 1), (2, 1)], beta=1, l=0, k=k)
        assert r.det == 4  # determinant stays fixed
        assert r.crossing_number == 5 + k
        assert r.verdict == "NotQuasiAlternating"
    with pytest.raises(HypothesisViolationError):
        corollary26_obstruction([(2, 1)], beta=1, l=0, k=3)  # sum = 1/2
    with pytest.raises(HypothesisViolationError):
        corollary26_obstruction([(2, 1), (2, 1)], beta=2, l=0, k=3)  # never coprime


def test_corollary26_crossing_mismatch_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(montesinos, "montesinos_crossing_number", lambda pres: -1)
    with pytest.raises(InternalConsistencyError):
        corollary26_obstruction([(2, 1), (2, 1)], beta=1, l=0, k=1)


def test_corollary26_threshold_is_sharp():
    # larger determinant: tangles (3,1),(3,1),(3,1), det = 27 beta=1
    reports = {
        k: corollary26_obstruction([(3, 1), (3, 1), (3, 1)], beta=1, l=0, k=k)
        for k in range(1, 30)
    }
    thr = reports[1].threshold_k
    assert all(r.threshold_k == thr for r in reports.values())
    for k, r in reports.items():
        assert (r.verdict == "NotQuasiAlternating") == (k >= thr)


def test_standard_form_check():
    assert standard_form_check(
        MontesinosPresentation.make(1, [(2, 1)], (3, 1))
    )
    assert not standard_form_check(
        MontesinosPresentation.make(1, [(3, 2), (3, 2)], (2, 1))
    )
    # the corollary's family with k large is in standard form
    rep = corollary26_obstruction([(2, 1), (2, 1)], beta=1, l=0, k=9)
    assert standard_form_check(rep.presentation)
    # a final tangle outside 0 < b < a is not standard
    assert not standard_form_check(
        MontesinosPresentation.make(1, [(2, 1)], (3, -1))
    )


def test_pretzel_family_reports():
    a5 = pretzel_family_report("A", 5)
    assert (a5.deg_q, a5.det, a5.satisfies_theorem_inequality) == (16, 23, True)
    assert a5.entries == (7, 6, -5)
    c3 = pretzel_family_report("C", 3)
    assert (c3.deg_q, c3.det, c3.satisfies_theorem_inequality) == (7, 9, True)
    b5 = pretzel_family_report("B", 5)
    assert (b5.deg_q, b5.det) == (15, 24)
    d = generate_pretzel(b5.entries)
    assert q_degree(d, 64) == b5.deg_q == len(d) - 2
    assert determinant_goeritz(d) == b5.det
    for bad in (("A", 3), ("A", 4), ("B", 2), ("C", 2), ("X", 5)):
        with pytest.raises(HypothesisViolationError):
            pretzel_family_report(*bad)


def test_family_c_pipeline_cross_check():
    for n in (3, 4):
        rep = pretzel_family_report("C", n) if n >= 3 else None
        d = generate_pretzel([n, n, -n])
        assert q_degree(d) == 3 * n - 2 == rep.deg_q
        assert determinant(d) == n * n == rep.det


def test_family_a_r3_pipeline_values():
    # r = 3 is outside the family hypothesis, but the diagram pipeline
    # still certifies the closed-form shape: deg 10 = 3r+1, det 7 = r^2-2
    d = generate_pretzel([5, 4, -3])
    assert q_degree(d) == 10
    assert determinant(d) == 7
    assert abs(5 * 4 + 4 * (-3) + (-3) * 5) == 7
