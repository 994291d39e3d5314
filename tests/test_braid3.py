import random

import pytest

from qalt.braid3 import (
    B3NormalForm,
    BraidWord,
    BurauMatrix,
    baldwin_is_qa,
    birman_jones,
    burau,
    closed_form_jones,
    crossing_upper_bound,
    det_formula,
    normal_form_from_dict,
    parse_braid_word,
    spanning_tree_count,
    to_word,
    tutte_graph,
    Multigraph,
)
from qalt.diagram import close_braid
from qalt.errors import HypothesisViolationError, MalformedDiagramError, PDParseError
from qalt.jones import determinant, determinant_goeritz, jones_polynomial
from qalt.poly import HalfLaurent, IntLaurent, eval_at_s_equals_i


def eval_minus1(p: IntLaurent) -> int:
    return sum(v if e % 2 == 0 else -v for e, v in p.items())


def test_braid_word_validation():
    w = BraidWord(3, (1, -2, 1))
    assert w.exponent_sum == 1
    with pytest.raises(MalformedDiagramError):
        BraidWord(3, (3,))
    with pytest.raises(MalformedDiagramError):
        BraidWord(3, (0,))
    with pytest.raises(MalformedDiagramError):
        BraidWord(1, ())


def test_parse_braid_word():
    assert parse_braid_word("s1 s2 s1^-1").letters == (1, 2, -1)
    assert parse_braid_word("1 2 -1").letters == (1, 2, -1)
    assert parse_braid_word("s1^3").letters == (1, 1, 1)
    assert parse_braid_word("s2^-2, 1").letters == (-2, -2, 1)
    for bad in ("", "x1", "s1^0", "0"):
        with pytest.raises(PDParseError):
            parse_braid_word(bad)


def test_to_word_examples():
    assert to_word(B3NormalForm.family2(0, 3)).letters == (2, 2, 2)
    assert to_word(B3NormalForm.family1(1, [(1, 1)])).letters == (
        1, 2, 1, 2, 1, 2, 1, -2,
    )
    assert to_word(B3NormalForm.family3(0, -1)).letters == (-1, -2)
    assert to_word(B3NormalForm.family2(-1, 0)).letters == (-2, -1) * 3


def test_normal_form_validation():
    with pytest.raises(HypothesisViolationError):
        B3NormalForm.family1(0, [])
    with pytest.raises(HypothesisViolationError):
        B3NormalForm.family1(0, [(0, 1)])
    with pytest.raises(HypothesisViolationError):
        B3NormalForm.family3(0, -4)
    with pytest.raises(HypothesisViolationError):
        B3NormalForm(4, 0)
    nf = normal_form_from_dict({"family": 1, "n": 1, "pairs": [[2, 1]]})
    assert nf.pairs == ((2, 1),)


def test_burau_generators_and_inverses():
    ident = BurauMatrix.identity()
    for g in (1, 2):
        w = BraidWord(3, (g, -g))
        assert burau(w) == ident
        assert burau(BraidWord(3, (-g, g))) == ident


def test_burau_braid_relation():
    assert burau(BraidWord(3, (1, 2, 1))) == burau(BraidWord(3, (2, 1, 2)))


def test_burau_full_twist_is_t_cubed():
    h = burau(BraidWord(3, (1, 2) * 3))
    t3 = IntLaurent({3: 1})
    assert (h.a, h.b, h.c, h.d) == (t3, IntLaurent.zero(), IntLaurent.zero(), t3)


def test_burau_homomorphism_random(rng):
    gens = (1, -1, 2, -2)
    for _ in range(30):
        u = BraidWord(3, tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))))
        v = BraidWord(3, tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))))
        assert burau(u * v) == burau(u) * burau(v)


def test_burau_at_minus_one_displayed_matrix():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            w = BraidWord(3, (1,) * n + (-2,) * m)
            mat = burau(w)
            assert eval_minus1(mat.a) == 1 + n * m
            assert eval_minus1(mat.b) == n
            assert eval_minus1(mat.c) == m
            assert eval_minus1(mat.d) == 1


def test_burau_requires_three_strands():
    with pytest.raises(MalformedDiagramError):
        burau(BraidWord(4, (3,)))


def test_birman_empty_word_is_three_unlink():
    v = birman_jones(BraidWord(3, ()))
    assert v == HalfLaurent({2: 1, 0: 2, -2: 1})  # t + 2 + t^-1
    assert jones_polynomial(close_braid([], 3)) == v


def test_closed_forms_match_birman():
    for n in range(-2, 3):
        for m in range(-3, 4):
            nf = B3NormalForm.family2(n, m)
            assert closed_form_jones(nf) == birman_jones(to_word(nf))
        for m in (-1, -2, -3):
            nf = B3NormalForm.family3(n, m)
            assert closed_form_jones(nf) == birman_jones(to_word(nf))
    with pytest.raises(HypothesisViolationError):
        closed_form_jones(B3NormalForm.family1(0, [(1, 1)]))


def test_birman_det_matches_bracket_det(rng):
    gens = (1, -1, 2, -2)
    for _ in range(100):
        w = BraidWord(3, tuple(rng.choice(gens) for _ in range(rng.randint(0, 10))))
        lhs = eval_at_s_equals_i(birman_jones(w)).abs_pure()
        assert lhs == determinant(close_braid(w.letters, 3))


def test_det_formula_cases():
    assert det_formula(B3NormalForm.family2(1, -2)) == 4
    assert det_formula(B3NormalForm.family2(2, 5)) == 0
    assert det_formula(B3NormalForm.family3(0, -1)) == 1
    assert det_formula(B3NormalForm.family3(0, -2)) == 2
    assert det_formula(B3NormalForm.family1(0, [(1, 1), (1, 1)])) == 5
    assert det_formula(B3NormalForm.family1(1, [(1, 1)])) == 5
    # figure-eight as a closed 3-braid
    assert determinant(close_braid([1, -2, 1, -2], 3)) == 5


def test_det_formula_matches_goeritz_on_non_palindromic_forms():
    # syllable order matters: each form differs from its reversal
    for n, pairs in [
        (-1, [(1, 1), (2, 3), (3, 1)] * 4),
        (0, [(1, 2), (3, 1), (2, 4)]),
        (1, [(2, 1), (1, 3), (4, 2), (1, 1)]),
        (2, [(1, 3), (2, 1), (3, 2)]),
        (-2, [(3, 1), (1, 2), (2, 4)]),
    ]:
        nf = B3NormalForm.family1(n, pairs)
        assert det_formula(nf) == determinant_goeritz(close_braid(to_word(nf)))
    assert det_formula(B3NormalForm.family1(-1, [(1, 1), (2, 3), (3, 1)] * 4)) == 126202756


def test_tutte_graph_and_matrix_tree():
    for p in range(1, 6):
        for q in range(1, 6):
            g = tutte_graph([(p, q)])
            assert g.vertices == q + 1
            assert spanning_tree_count(g) == p * q
    assert spanning_tree_count(tutte_graph([(1, 1), (1, 1)])) == 5
    triangle = Multigraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert spanning_tree_count(triangle) == 3
    quad = Multigraph.from_edges(2, [(0, 1)] * 4)
    assert spanning_tree_count(quad) == 4
    split = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    assert spanning_tree_count(split) == 0


def test_three_way_determinant_small_grid():
    for n in (-1, 0, 1, 2):
        for pairs in ([(1, 1)], [(2, 1)], [(1, 2)], [(2, 2)], [(1, 1), (1, 1)], [(2, 1), (1, 2)]):
            nf = B3NormalForm.family1(n, pairs)
            w = to_word(nf)
            formula = det_formula(nf)
            trees = spanning_tree_count(tutte_graph(pairs))
            assert formula == trees + (4 if n % 2 else 0)
            assert formula == eval_at_s_equals_i(birman_jones(w)).abs_pure()
            if len(w.letters) <= 16:
                assert formula == determinant(close_braid(w.letters, 3))


def test_baldwin_classification():
    assert baldwin_is_qa(B3NormalForm.family1(1, [(3, 2), (1, 1)]))
    assert baldwin_is_qa(B3NormalForm.family1(0, [(1, 1)]))
    assert not baldwin_is_qa(B3NormalForm.family1(2, [(1, 1)]))
    assert baldwin_is_qa(B3NormalForm.family2(1, -2))
    assert not baldwin_is_qa(B3NormalForm.family2(0, 5))
    assert not baldwin_is_qa(B3NormalForm.family2(1, 2))
    assert baldwin_is_qa(B3NormalForm.family2(-1, 3))
    assert baldwin_is_qa(B3NormalForm.family3(0, -1))
    assert baldwin_is_qa(B3NormalForm.family3(1, -3))
    assert not baldwin_is_qa(B3NormalForm.family3(2, -3))


def test_crossing_upper_bound():
    assert crossing_upper_bound(B3NormalForm.family1(1, [(1, 1)])) == 5
    assert crossing_upper_bound(B3NormalForm.family1(1, [(3, 1)])) == 7
    assert crossing_upper_bound(B3NormalForm.family1(1, [(2, 2)])) == 8
    assert crossing_upper_bound(B3NormalForm.family1(1, [(1, 3)])) == 6
    assert crossing_upper_bound(B3NormalForm.family1(-1, [(2, 2)])) == 8
    assert crossing_upper_bound(B3NormalForm.family1(0, [(2, 3)])) == 5
    assert crossing_upper_bound(B3NormalForm.family1(0, [(1, 4)])) == 4
    assert crossing_upper_bound(B3NormalForm.family1(0, [(1, 1)])) == 0
    with pytest.raises(HypothesisViolationError):
        crossing_upper_bound(B3NormalForm.family1(2, [(1, 1)]))
    with pytest.raises(HypothesisViolationError):
        crossing_upper_bound(B3NormalForm.family2(1, -1))


def test_word_inverse_and_product():
    w = parse_braid_word("1 2 -1")
    assert (w * w.inverse()).exponent_sum == 0
    assert w.inverse().letters == (1, -2, -1)
