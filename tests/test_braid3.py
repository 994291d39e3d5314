import random
from itertools import combinations, product

import pytest

from qalt import braid3
from qalt.braid3 import (
    B3NormalForm,
    BraidWord,
    BurauMatrix,
    baldwin_is_qa,
    birman_jones,
    _neg_sqrt_t_power,
    burau,
    det_formula,
    spanning_tree_count,
    to_word,
    tutte_graph,
)
from qalt.diagram import close_braid, simplify
from qalt.errors import HypothesisViolationError, MalformedDiagramError
from qalt.intmat import laplacian_det
from qalt.jones import determinant, determinant_goeritz, jones_polynomial
from qalt.poly import HalfLaurent, IntLaurent, eval_at_s_equals_i, nbytes_for
from qalt.qpoly import q_degree

from conftest import longest_bridge


def eval_minus1(p: IntLaurent) -> int:
    return sum(v if e % 2 == 0 else -v for e, v in p.items())


_T = IntLaurent.x()
# the reduced Burau generators and their exact inverses (det psi(s_i) = -t)
BURAU_TABLE = {
    1: BurauMatrix(-_T, IntLaurent.const(1), IntLaurent.zero(), IntLaurent.const(1)),
    2: BurauMatrix(IntLaurent.const(1), IntLaurent.zero(), _T, -_T),
    -1: BurauMatrix(
        IntLaurent({-1: -1}), IntLaurent({-1: 1}), IntLaurent.zero(), IntLaurent.const(1)
    ),
    -2: BurauMatrix(
        IntLaurent.const(1), IntLaurent.zero(), IntLaurent.const(1), IntLaurent({-1: -1})
    ),
}


def burau_product(m: BurauMatrix, o: BurauMatrix) -> BurauMatrix:
    return BurauMatrix(
        m.a * o.a + m.b * o.c,
        m.a * o.b + m.b * o.d,
        m.c * o.a + m.d * o.c,
        m.c * o.b + m.d * o.d,
    )


def burau_identity() -> BurauMatrix:
    one, zero = IntLaurent.const(1), IntLaurent.zero()
    return BurauMatrix(one, zero, zero, one)


def burau_by_letters(letters) -> BurauMatrix:
    """The Burau matrix as the letter-by-letter product of the table."""
    out = burau_identity()
    for g in letters:
        out = burau_product(out, BURAU_TABLE[g])
    return out


def closed_form_jones(nf: B3NormalForm) -> HalfLaurent:
    """The displayed closed forms for families 2 and 3."""
    n = nf.n
    t_pm = IntLaurent({1: 1, -1: 1})  # t + t^-1
    if nf.family == 2:
        m = nf.m
        body = t_pm + IntLaurent({3 * n: 1}) + IntLaurent({3 * n + m: -1 if m % 2 else 1})
        return _neg_sqrt_t_power(m + 6 * n) * HalfLaurent.from_t(body)
    if nf.family == 3:
        if nf.m == -1:
            body = t_pm + IntLaurent({3 * n - 1: -1})  # t^{3n} (-t)^-1
            return _neg_sqrt_t_power(6 * n - 2) * HalfLaurent.from_t(body)
        if nf.m == -2:
            return _neg_sqrt_t_power(6 * n - 3) * HalfLaurent.from_t(t_pm)
        # trace term for m = -3 is -t^{3n-2}: tr Burau(s1^-3 s2^-1) = -t^-2
        # (the n = 0 closure destabilizes to the trefoil, pinning the sign)
        body = t_pm + IntLaurent({3 * n - 2: -1})
        return _neg_sqrt_t_power(6 * n - 4) * HalfLaurent.from_t(body)
    raise HypothesisViolationError("no closed Jones form for family 1")


def crossing_upper_bound(nf: B3NormalForm) -> int:
    """Upper bound on the crossing number in the quasi-alternating regime
    of family 1 (n in {-1, 0, 1}).

    For n = +-1 these are the braid-reduction bounds 4+p+q, 3+q, p+4 and 5;
    for n = 0 the closure is alternating and single-syllable words
    destabilize, giving p+q with the s=1 degenerate cases q, p and 0.
    """
    if nf.family != 1 or nf.n not in (-1, 0, 1):
        raise HypothesisViolationError(
            "crossing bound stated for family 1 with n in {-1, 0, 1}"
        )
    s = len(nf.pairs)
    p = sum(pi for pi, _ in nf.pairs)
    q = sum(qi for _, qi in nf.pairs)
    if nf.n == 0:
        if s == 1:
            p1, q1 = nf.pairs[0]
            if p1 == 1 and q1 == 1:
                return 0
            if p1 == 1:
                return q1
            if q1 == 1:
                return p1
        return p + q
    if s == 1:
        p1, q1 = nf.pairs[0]
        if p1 == 1 and q1 == 1:
            return 5
        if p1 == 1:
            return 3 + q1
        if q1 == 1:
            return p1 + 4
    return 4 + p + q


def subset_tree_count(pairs) -> int:
    """The displayed sum over every nonempty subset of syllables: the product
    of the chosen p_i times the cyclic gaps between consecutive chosen
    cumulative positions (q for a single one)."""
    s = len(pairs)
    q = sum(qi for _, qi in pairs)
    cum = [sum(qi for _, qi in pairs[:i]) for i in range(s)]
    total = 0
    for k in range(1, s + 1):
        for subset in combinations(range(s), k):
            term = 1
            for i in subset:
                term *= pairs[i][0]
            if k == 1:
                term *= q
            else:
                for r in range(k):
                    a, b = subset[r], subset[(r + 1) % k]
                    term *= (cum[b] - cum[a]) % q
            total += term
    return total


def random_family1(rng: random.Random, syllables: int, top: int) -> B3NormalForm:
    pairs = [(rng.randint(1, top), rng.randint(1, top)) for _ in range(syllables)]
    return B3NormalForm.family1(rng.randint(-2, 2), pairs)


def test_braid_word_validation():
    w = BraidWord(3, (1, -2, 1))
    assert w.exponent_sum == 1
    with pytest.raises(MalformedDiagramError):
        BraidWord(3, (3,))
    with pytest.raises(MalformedDiagramError):
        BraidWord(3, (0,))
    with pytest.raises(MalformedDiagramError):
        BraidWord(1, ())


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
    with pytest.raises(HypothesisViolationError, match="family 2 takes no pairs"):
        B3NormalForm(2, 0, ((1, 1),))


def test_burau_generators_and_inverses():
    ident = burau_identity()
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
        assert burau(BraidWord(3, u.letters + v.letters)) == burau_product(burau(u), burau(v))


def test_burau_at_minus_one_displayed_matrix():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            w = BraidWord(3, (1,) * n + (-2,) * m)
            mat = burau(w)
            assert eval_minus1(mat.a) == 1 + n * m
            assert eval_minus1(mat.b) == n
            assert eval_minus1(mat.c) == m
            assert eval_minus1(mat.d) == 1


def test_burau_of_each_letter_is_its_table_matrix():
    for g, mat in BURAU_TABLE.items():
        assert burau(BraidWord(3, (g,))) == mat


def test_burau_equals_the_letter_by_letter_product():
    rng = random.Random(1406)
    gens = (1, -1, 2, -2)
    words = [()] + [
        tuple(rng.choice(gens) for _ in range(rng.randint(0, 120))) for _ in range(500)
    ]
    for letters in words:
        assert burau(BraidWord(3, letters)) == burau_by_letters(letters), letters


def test_burau_with_wide_coefficients():
    # trace coefficients of both signs beyond 2^300: wide digits, and negative
    # ones that borrow from the next digit in the balanced decode
    letters = (1, -2) * 300
    mat = burau(BraidWord(3, letters))
    assert mat == burau_by_letters(letters)
    coeffs = [v for _, v in mat.trace().items()]
    assert max(abs(v) for v in coeffs).bit_length() > 300
    assert min(coeffs) < 0 < max(coeffs)


def test_burau_requires_three_strands():
    with pytest.raises(MalformedDiagramError):
        burau(BraidWord(4, (3,)))


def test_birman_empty_word_is_three_unlink():
    v = birman_jones(BraidWord(3, ()))
    assert v == HalfLaurent({2: 1, 0: 2, -2: 1})  # t + 2 + t^-1
    assert jones_polynomial(close_braid([], 3)) == v


def entry_bounds(letters) -> tuple[int, int, int, int]:
    """The l1 bounds (na, nb, nc, nd) of the Burau entries in u = -t: a
    letter s1^+-1 adds column a to column b, s2^+-1 column b to column a."""
    na, nb, nc, nd = 1, 0, 0, 1
    for g in letters:
        if g in (1, -1):
            nb, nd = nb + na, nd + nc
        else:
            na, nc = na + nb, nc + nd
    return na, nb, nc, nd


B300 = (1, 2, 1, -2, -2) * 60  # the corpus's b300: 25-byte digits for 1-bit coefficients


def birman_words():
    """Alternating words, words with cancellation, the empty word, single
    letters, and a seeded random word whose trace bound na + nd needs a
    wider digit than its largest entry bound."""
    rng = random.Random(1985)
    words = [(), (1,), (-1,), (2,), (-2,), (1, -2) * 50, (1, -2) * 300, (1, 1, -2) * 40]
    words += [tuple(rng.choice((1, -2)) for _ in range(rng.randint(1, 120))) for _ in range(20)]
    words += [B300]
    words += [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 120))) for _ in range(20)]
    while True:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 120)))
        na, nb, nc, nd = entry_bounds(letters)
        if nbytes_for(na + nd) > nbytes_for(max(na, nb, nc, nd)):
            return words + [letters]


def test_birman_reads_the_trace_of_the_burau_matrix(monkeypatch):
    decodes = []
    original = braid3.unpack

    def recorded(v, nbytes, low=0):
        decodes.append(nbytes)
        return original(v, nbytes, low)

    words = birman_words()
    na, nb, nc, nd = entry_bounds(words[-1])
    assert nbytes_for(na + nd) > nbytes_for(max(na, nb, nc, nd))
    assert nbytes_for(max(entry_bounds(B300))) == 25
    assert max(abs(v) for _, v in birman_jones(BraidWord(3, B300)).items()) == 1
    for letters in words:
        w = BraidWord(3, letters)
        e = w.exponent_sum
        body = IntLaurent({1: 1, -1: 1}) + burau(w).trace()
        want = HalfLaurent.s_term(-1 if e % 2 else 1, e) * HalfLaurent.from_t(body)
        na, _, _, nd = entry_bounds(letters)
        monkeypatch.setattr(braid3, "unpack", recorded)
        assert birman_jones(w) == want, letters
        monkeypatch.setattr(braid3, "unpack", original)
        # the trace alone is decoded, once, at its own bound's width
        assert decodes == [nbytes_for(na + nd)], letters
        decodes.clear()
    with pytest.raises(MalformedDiagramError):
        birman_jones(BraidWord(2, (1, -1, 1)))


def test_closed_forms_match_birman():
    # families 2 and 3 also against the Goeritz determinant of the closure
    for n in range(-3, 4):
        forms = [B3NormalForm.family2(n, m) for m in range(-8, 9)]
        forms += [B3NormalForm.family3(n, m) for m in (-1, -2, -3)]
        for nf in forms:
            assert closed_form_jones(nf) == birman_jones(to_word(nf))
            assert det_formula(nf) == determinant_goeritz(close_braid(to_word(nf)))
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


def test_tree_count_equals_the_subset_sum():
    rng = random.Random(279)
    for _ in range(300):
        nf = random_family1(rng, rng.randint(1, 10), 5)
        trees = subset_tree_count(nf.pairs)
        assert det_formula(nf) == trees + (4 if nf.n % 2 else 0), nf


def test_det_formula_equals_matrix_tree_at_paper_scale():
    # far beyond the subset sum: 2^40 subsets at s = 40
    rng = random.Random(1406)
    for s in range(20, 41, 4):
        nf = random_family1(rng, s, 4)
        trees = spanning_tree_count(tutte_graph(nf.pairs))
        assert det_formula(nf) == trees + (4 if nf.n % 2 else 0), nf


def test_det_formula_equals_goeritz_at_paper_scale():
    rng = random.Random(2014)
    for s in range(20, 25):
        nf = random_family1(rng, s, 3)
        assert det_formula(nf) == determinant_goeritz(close_braid(to_word(nf))), nf


def test_tutte_graph_and_matrix_tree():
    for p in range(1, 6):
        for q in range(1, 6):
            vertices, edges = tutte_graph([(p, q)])
            assert vertices == q + 1
            assert spanning_tree_count((vertices, edges)) == p * q
    assert spanning_tree_count(tutte_graph([(1, 1), (1, 1)])) == 5
    assert spanning_tree_count((3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])) == 3
    # four parallel edges are one edge of weight 4
    assert spanning_tree_count((2, [(0, 1, 4)])) == 4
    assert spanning_tree_count((4, [(0, 1, 1), (2, 3, 1)])) == 0
    for edge in ((0, 3, 1), (-1, 0, 1)):
        with pytest.raises(ValueError, match="outside"):
            spanning_tree_count((3, [(0, 1, 1), edge]))
    for pairs in ([], [(0, 1)], [(2, 1), (1, 0)]):
        with pytest.raises(HypothesisViolationError):
            tutte_graph(pairs)
    # one hub edge of weight p_i counts as the p_i parallel edges it stands for
    for nf in _baldwin_box():
        if nf.family != 1:
            continue
        vertices, edges = tutte_graph(nf.pairs)
        q = vertices - 1
        assert sum(u == q for u, _, _ in edges) == len(nf.pairs)
        parallel = [(j, (j + 1) % q, 1) for j in range(q)]
        acc = 0
        for p, qi in nf.pairs:
            parallel += [(q, (acc - 1) % q, 1)] * p
            acc += qi
        trees = spanning_tree_count((vertices, edges))
        assert trees == braid3._family1_tree_count(nf.pairs), nf
        assert trees == laplacian_det(vertices, parallel), nf


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


def _baldwin_box():
    """Family 1 with |n| <= 2 and one or two syllables of exponents 1..4 or
    three of exponents 1..2, family 2 with |n| <= 2 and |m| <= 6, family 3
    with |n| <= 2: 1760 forms of up to 28 crossings."""
    for n in range(-2, 3):
        for syllables, top in ((1, 4), (2, 4), (3, 2)):
            for ex in product(range(1, top + 1), repeat=2 * syllables):
                yield B3NormalForm.family1(n, zip(ex[::2], ex[1::2]))
        for m in range(-6, 7):
            yield B3NormalForm.family2(n, m)
        for m in (-1, -2, -3):
            yield B3NormalForm.family3(n, m)


def test_quasi_alternating_closed_3_braids_satisfy_the_obstruction():
    # Baldwin (J. Topology 1, 2008) classifies the quasi-alternating closed
    # 3-braids; the paper's theorem then gives deg Q < det on each of them
    qa = caught = 0
    for nf in _baldwin_box():
        d = close_braid(to_word(nf))
        det = determinant_goeritz(d)
        if nf.family == 1:
            assert det == det_formula(nf), nf
        deg = q_degree(d)
        if baldwin_is_qa(nf):
            qa += 1
            assert deg < det, nf
        else:
            caught += deg >= det
    assert qa == 1020
    assert caught == 110  # non-QA forms the obstruction rules out


def test_kidwell_bound_on_baldwins_box():
    # deg Q <= n - b (Kidwell, Proc. AMS 100, 1987) on each closure of the box
    # and on its reduction, b the longest bridge of that diagram
    tight = 0
    for nf in _baldwin_box():
        d = close_braid(to_word(nf))
        deg = q_degree(d)
        for diagram in (d, simplify(d)):
            n, b = len(diagram), longest_bridge(diagram)
            assert deg <= n - b, (nf, diagram, deg, n, b)
            tight += deg == n - b
    assert tight > 700


def test_crossing_upper_bound():
    assert crossing_upper_bound(B3NormalForm.family1(1, [(1, 1)])) == 5
    assert crossing_upper_bound(B3NormalForm.family1(1, [(3, 1)])) == 7
    assert crossing_upper_bound(B3NormalForm.family1(1, [(2, 2)])) == 8
    assert crossing_upper_bound(B3NormalForm.family1(1, [(1, 3)])) == 6
    assert crossing_upper_bound(B3NormalForm.family1(-1, [(2, 2)])) == 8
    assert crossing_upper_bound(B3NormalForm.family1(0, [(2, 3)])) == 5
    assert crossing_upper_bound(B3NormalForm.family1(0, [(1, 4)])) == 4
    assert crossing_upper_bound(B3NormalForm.family1(0, [(1, 1)])) == 0
    assert crossing_upper_bound(B3NormalForm.family1(0, [(3, 1)])) == 3  # q1 = 1: p1
    with pytest.raises(HypothesisViolationError):
        crossing_upper_bound(B3NormalForm.family1(2, [(1, 1)]))
    with pytest.raises(HypothesisViolationError):
        crossing_upper_bound(B3NormalForm.family2(1, -1))
