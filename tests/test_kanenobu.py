import pytest

from qalt.diagram import connected_sum, figure_eight
from qalt.jones import determinant_goeritz
from qalt.kanenobu import (
    KANENOBU_DET,
    Q_8_8,
    Q_8_9,
    kanenobu_degree,
    kanenobu_q,
    qa_candidate_scan,
)
from qalt.poly import IntLaurent, sigma
from qalt.qpoly import q_polynomial


def test_constants():
    assert Q_8_8.degree() == 7
    assert Q_8_8.coeff(7) == 2
    assert Q_8_9.coeff(0) == -7
    assert KANENOBU_DET == 25


def test_q00_substitution():
    expected = IntLaurent.term(2, -1) * (Q_8_8 - IntLaurent.const(1)) + IntLaurent.const(1)
    assert kanenobu_q(0, 0) == expected


def test_k00_constants_match_a_diagram():
    # K(0, 0) is 4_1 # 4_1: its Q and det derive Q_8_8 and KANENOBU_DET
    k00 = connected_sum(figure_eight(), figure_eight(), 1, 1)
    assert q_polynomial(k00) == kanenobu_q(0, 0)
    assert kanenobu_q(0, 0) == IntLaurent.term(2, -1) * (Q_8_8 - 1) + 1
    assert determinant_goeritz(k00) == KANENOBU_DET


def test_symmetry():
    # sigma_{-n} = -sigma_n, so the closed form is unchanged by (p, q) -> (-p, -q)
    for p in range(-20, 21):
        for q in range(-20, 21):
            assert kanenobu_q(p, q) == kanenobu_q(q, p) == kanenobu_q(-p, -q), (p, q)


def test_degree_formula_vs_expansion():
    # the whole qa_candidate_scan box
    for p in range(-20, 21):
        for q in range(-20, 21):
            assert kanenobu_q(p, q).degree() == kanenobu_degree(p, q)


# past |p| + |q| of about 80 the coefficient bound passes 2^63, and the
# packed value is decoded from digits wider than a machine word
WIDE_CELLS = [(p, q) for p in (-60, -45, 45, 60, 80) for q in (-60, -45, 45, 60, 80, -1, 0, 1)]


def test_kanenobu_q_equals_its_formula():
    x_inv = IntLaurent.term(1, -1)
    cells = [(p, q) for p in range(-25, 26) for q in range(-25, 26)] + WIDE_CELLS
    for p, q in cells:
        expected = (
            -sigma(p) * sigma(q) * (Q_8_9 - 1)
            + x_inv * sigma(p + 1) * sigma(q + 1) * (Q_8_8 - 1)
            + x_inv * sigma(p - 1) * sigma(q - 1) * (Q_8_8 - 1)
            + 1
        )
        assert kanenobu_q(p, q) == expected, (p, q)


def test_q_at_1_and_2():
    # Brandt, Lickorish and Millett (Invent. Math. 84, 1986): every knot has
    # Q(1) = 1 and Q(2) = det^2, here 625; both values read every coefficient
    cells = [(p, q) for p in range(-40, 41) for q in range(-40, 41)] + WIDE_CELLS
    for p, q in cells:
        Q = kanenobu_q(p, q)
        low = min(Q.low_degree(), 0)
        assert sum(v for _, v in Q.items()) == 1, (p, q)
        assert sum(v << e - low for e, v in Q.items()) == KANENOBU_DET**2 << -low, (p, q)


def test_parameters_must_be_integers():
    for bad in (1.5, -2.0, "2", None):
        for f in (kanenobu_q, kanenobu_degree):
            with pytest.raises(TypeError):
                f(bad, 0)
            with pytest.raises(TypeError):
                f(0, bad)
    assert kanenobu_degree(True, 0) == kanenobu_degree(1, 0) == 7


def test_degree_examples():
    assert kanenobu_degree(3, 0) == 9
    assert kanenobu_q(3, 0).degree() == 9
    assert kanenobu_degree(1, -1) == 7


def test_scan():
    scan = qa_candidate_scan()
    assert (9, 9) in scan
    assert (10, 9) not in scan
    assert (10, -9) in scan
    assert len(scan) < 10_000  # finite and explicitly enumerated
    # symmetric under (p,q) -> (q,p) and (p,q) -> (-p,-q)
    assert all((q, p) in scan and (-p, -q) in scan for p, q in scan)
    # the conjectured quasi-alternating members pass the necessary condition
    for pair in [(0, 0), (1, 0), (1, -1)]:
        assert pair in scan


def test_sigma_identity_underlying_degree_proof():
    # sigma_n = sign(n) S_{|n|-1} gives deg sigma_{|p|+1} = |p|
    for n in range(1, 6):
        assert sigma(n).degree() == n - 1
