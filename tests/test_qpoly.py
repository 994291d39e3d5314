import random
from fractions import Fraction

import pytest

from qalt import jones
from qalt.diagram import (
    SWEEP_WIDTH,
    PDDiagram,
    SmoothingKind,
    _basis,
    _connected_pieces,
    _faces,
    _relabel,
    _sweep,
    _sweep_steps,
    close_braid,
    connected_sum,
    figure_eight,
    generate_pretzel,
    hopf_link,
    mirror,
    num_components,
    parse_pd,
    simplify,
    smooth,
    switch,
    trefoil,
    unlink,
)
from qalt.errors import CrossingLimitError, MalformedDiagramError
from qalt.jones import determinant_goeritz
from qalt.poly import IntLaurent
from qalt.qpoly import (
    _chain,
    _q,
    _transition,
    check_lemma22,
    q_degree,
    q_polynomial,
)

from conftest import random_braid_diagram

P = IntLaurent.parse

Q_TREFOIL = P("2x^2+2x-3")
Q_HOPF = P("2x+1-2x^-1")
# one-step hand expansions: Q_H = x(1+1) - (2x^-1 - 1), Q_T = x(Q_H + 1) - 1


def test_unknot_and_unlinks():
    assert q_polynomial(unlink(1)) == P("1")
    assert q_polynomial(unlink(2)) == P("2x^-1-1")
    base = P("2x^-1-1")
    for k in range(1, 6):
        assert q_polynomial(unlink(k)) == base ** (k - 1)


def test_empty_link_rejected():
    with pytest.raises(MalformedDiagramError):
        q_polynomial(unlink(0))


def test_trefoil_and_hopf():
    assert q_polynomial(hopf_link()) == Q_HOPF
    assert q_polynomial(trefoil()) == Q_TREFOIL


def test_q_8_8_catalog_value():
    # Kanenobu's Q(8_8); the diagram comes from the braid word
    # (checked against the determinant/degree published for 8_8)
    pytest.skip("8_8 fixture lands with the catalog module")


def test_diagram_independence():
    q = Q_TREFOIL
    assert q_polynomial(close_braid([1, 1, 1], 2)) == q
    assert q_polynomial(generate_pretzel([1, 1, 1])) == q


def test_mirror_invariance():
    for d in (trefoil(), figure_eight(), hopf_link()):
        assert q_polynomial(mirror(d)) == q_polynomial(d)


def test_connected_sum_multiplicativity():
    diagrams = [trefoil(), figure_eight(), hopf_link()]
    for d1 in diagrams:
        for d2 in diagrams:
            s = connected_sum(d1, d2, 1, 1)
            assert q_polynomial(s) == q_polynomial(d1) * q_polynomial(d2)


def test_low_degree_law():
    rng = random.Random(1)
    for _ in range(25):
        d = random_braid_diagram(rng, 8, 3)
        assert q_polynomial(d).low_degree() == 1 - num_components(d)


def test_split_factor():
    d = trefoil()
    split = parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3);O(1)")
    assert q_polynomial(split) == P("2x^-1-1") * q_polynomial(d)


def test_skein_residual_at_every_crossing():
    rng = random.Random(42)
    x = IntLaurent.x()
    memo: dict = {}
    for _ in range(12):
        d = random_braid_diagram(rng, 7, 3)
        qd = q_polynomial(d, memo=memo)
        for i in range(len(d)):
            qs = q_polynomial(switch(d, i), memo=memo)
            qa = q_polynomial(smooth(d, i, SmoothingKind.A), memo=memo)
            qb = q_polynomial(smooth(d, i, SmoothingKind.B), memo=memo)
            assert qd + qs - x * (qa + qb) == IntLaurent.zero()


def test_lemma22_inequality():
    rng = random.Random(7)
    for _ in range(10):
        d = random_braid_diagram(rng, 7, 3)
        for i in range(len(d)):
            assert check_lemma22(d, i)
    for i in range(3):
        assert check_lemma22(trefoil(), i)
    for i in range(2):
        assert check_lemma22(hopf_link(), i)
    with pytest.raises(MalformedDiagramError):
        check_lemma22(unlink(1), 0)


def test_degree_bounds():
    # Kidwell-type sanity: deg Q <= crossings - 1 on connected diagrams
    rng = random.Random(3)
    for _ in range(20):
        d = random_braid_diagram(rng, 8, 3)
        if num_components(d) and len(d):
            assert q_degree(d) <= max(len(d) - 1, 0)


def test_crossing_bound():
    d = close_braid([1] * 15, 2)
    with pytest.raises(CrossingLimitError):
        q_polynomial(d)
    assert q_polynomial(d, max_crossings=15).degree() >= 0


def test_pretzel_degrees():
    assert q_degree(generate_pretzel([3, 3, -3])) == 7
    assert q_degree(generate_pretzel([5, 4, -3])) == 10


@pytest.mark.parametrize("k", [8, 13, 50])
def test_memo_key_does_not_collide(k):
    # (s1 s2^-1)^k is an alternating knot of 2k crossings; at k = 8 a
    # relabeling-invariant memo key that merged distinct subdiagrams gave
    # Q(-2) = -863
    d = close_braid([1, -2] * k, 3)
    q = q_polynomial(d, 2 * k)
    assert q.degree() == 2 * k - 1
    assert _evaluations(q) == (1, 1, determinant_goeritz(d) ** 2)


def _evaluations(q):
    """Q(1), Q(-2) and Q(2): 1, (-2)^(c-1) and det^2 on a c-component link."""
    return tuple(sum(Fraction(x) ** e * v for e, v in q.items()) for x in (1, -2, 2))


def _matchings(points):
    """Every perfect matching of `points`, as pairs (p, q), p < q, in order of p."""
    if not points:
        yield ()
        return
    p, rest = points[0], points[1:]
    for k, q in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1 :]):
            yield ((p, q),) + m


@pytest.mark.parametrize("width", [2, 4, 6, 8])
def test_basis_tangles_evaluate_to_their_unit_vectors(width):
    matchings = list(_matchings(tuple(range(width))))
    assert len(matchings) == {2: 1, 4: 3, 6: 15, 8: 105}[width]
    noncrossing = 0
    for m in matchings:
        crossings, boundary = _basis(width, m)
        tangle = PDDiagram(crossings, 0, boundary)
        assert _q(tangle, {}) == {m: 1}
        if not crossings:  # a crossingless tangle: a basis tangle of the bracket
            noncrossing += 1
            assert jones._bracket(tangle, {}) == {m: 1}
        # capped outside its disk, the drawing is a planar link diagram
        caps = list(zip(boundary[::2], boundary[1::2]))
        _faces(PDDiagram(*_relabel(crossings, caps, 0)))
    assert noncrossing == {2: 1, 4: 2, 6: 5, 8: 14}[width]  # Catalan(width / 2)


def _sweep_cases():
    """Seeded 2-6-strand closures, pretzels and connected sums of them."""
    rng = random.Random(8)
    for _ in range(60):
        yield random_braid_diagram(rng, 14, rng.randint(2, 5))
    for _ in range(15):
        entries = (-4, -3, -2, -1, 1, 2, 3, 4)
        yield generate_pretzel([rng.choice(entries) for _ in range(rng.randint(2, 5))])
    for _ in range(15):
        d1 = random_braid_diagram(rng, 8, rng.randint(2, 4))
        d2 = generate_pretzel([rng.choice((-3, -2, 2, 3)) for _ in range(3)])
        if d1.crossings:
            yield connected_sum(d1, d2, rng.choice(sorted(d1.ends)), rng.choice(sorted(d2.ends)))
    # alternating 6-strand closures: their frontier outgrows the cap
    for k in (2, 3):
        yield close_braid([1, -2, 3, -4, 5] * k, 6)
        yield close_braid([1, 3, 5, -2, -4] * k, 6)


def _pieces(d):
    return [PDDiagram([d.crossings[i] for i in piece]) for piece in _connected_pieces(d)]


def test_sweep_equals_the_switch_chain():
    # Q sweeps the pieces of the reduced diagram, the bracket those of the
    # diagram itself; each sweep must equal its engine's skein recursion
    swept = wide = 0
    for d in _sweep_cases():
        q = q_polynomial(d, 64)
        assert _evaluations(q) == (
            1, (-2) ** (num_components(d) - 1), determinant_goeritz(d) ** 2
        )
        for p, transition, recursion in [
            *((p, _transition, _chain) for p in _pieces(simplify(d))),
            *((p, jones._transition, jones._smoothing) for p in _pieces(d)),
        ]:
            steps = _sweep_steps(p)
            if steps is None:
                wide += 1
            else:
                swept += 1
                assert max(width for width, _ in steps) <= SWEEP_WIDTH
                assert _sweep(steps, transition) == recursion(p, {}), p
    assert swept > 100 and wide >= 8
