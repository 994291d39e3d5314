import random

import pytest

from qalt import jones
from qalt.diagram import (
    PDDiagram,
    SmoothingKind,
    close_braid,
    connected_sum,
    figure_eight,
    generate_pretzel,
    hopf_link,
    mirror,
    num_components,
    parse_pd,
    render_pd,
    simplify,
    smooth,
    switch,
    trefoil,
    unknot,
    unlink,
)
from qalt.errors import CrossingLimitError, MalformedDiagramError
from qalt.jones import (
    ObstructionVerdict,
    bracket_state_sum,
    breadth,
    determinant,
    determinant_goeritz,
    jones_polynomial,
    kauffman_bracket,
    obstruction_check,
    orient,
)
from qalt.poly import HalfLaurent, IntLaurent
from qalt.qpoly import q_polynomial

from conftest import random_braid_diagram

V_TREFOIL = HalfLaurent({-8: -1, -6: 1, -2: 1})  # -t^-4 + t^-3 + t^-1


def s_term(c, e):
    return HalfLaurent.s_term(c, e)


def test_unknot_normalization():
    assert jones_polynomial(unknot()) == HalfLaurent.const(1)


def test_trefoil_value():
    assert jones_polynomial(trefoil()) == V_TREFOIL


def test_mirror_inverts_t():
    for d in (trefoil(), figure_eight(), close_braid([1, 2] * 4, 3)):
        v = jones_polynomial(d)
        assert jones_polynomial(mirror(d)) == v.substitute_s_inverse()


def test_figure_eight_value():
    v = jones_polynomial(figure_eight())
    assert v == HalfLaurent({4: 1, 2: -1, 0: 1, -2: -1, -4: 1})


def test_torus_knot_values():
    # V(T(3,4)) = t^3 + t^5 - t^8, V(T(3,5)) = t^4 + t^6 - t^10
    assert jones_polynomial(close_braid([1, 2] * 4, 3)) == HalfLaurent(
        {6: 1, 10: 1, 16: -1}
    )
    assert jones_polynomial(close_braid([1, 2] * 5, 3)) == HalfLaurent(
        {8: 1, 12: 1, 20: -1}
    )


def test_writhe_and_signs():
    od = orient(trefoil())
    assert od.writhe == -3
    assert orient(mirror(trefoil())).writhe == 3
    assert orient(close_braid([1, 2] * 4, 3)).writhe == 8


def test_bracket_engines_agree(rng):
    for _ in range(15):
        d = random_braid_diagram(rng, 8, 3)
        assert kauffman_bracket(d) == bracket_state_sum(d)


KINK = parse_pd("X(1,1,2,2)")  # loop arc at slots 0, 1; its mirror at 1, 2
KINKED_TREFOIL = connected_sum(trefoil(), KINK, 1, 1)  # loop arc at slots 2, 3
UNKNOT_KINKS = [
    KINK,
    parse_pd("X(1,2,2,1)"),
    close_braid([1, -1, 1], 2),  # R2 bigon, then a kink
    close_braid([-1, -1, 1], 2),
]
# (diagram, its simplified PD text)
REDUCER_CASES = [(d, "O(1)") for k in UNKNOT_KINKS for d in (k, mirror(k))] + [
    (KINKED_TREFOIL, "X(1,2,3,4);X(2,1,5,6);X(4,3,6,5)"),
    (mirror(KINKED_TREFOIL), "X(1,2,3,4);X(4,6,5,1);X(2,5,6,3)"),
]


@pytest.mark.parametrize(
    "d, simplified", REDUCER_CASES, ids=[render_pd(d) for d, _ in REDUCER_CASES]
)
def test_reducer_kink_weights(d, simplified):
    # each removed kink costs -A^3 or -A^-3 depending on its loop arc's slots
    assert kauffman_bracket(d) == bracket_state_sum(d)
    assert render_pd(simplify(d)) == simplified


def test_determinants():
    assert determinant(unknot()) == 1
    assert determinant(trefoil()) == 3
    assert determinant(close_braid([1, 2] * 4, 3)) == 3  # 8_19
    assert determinant(close_braid([1, -2, 1, -2], 3)) == 5  # figure-eight
    assert determinant(generate_pretzel([3, 3, -3])) == 9
    assert determinant(close_braid([1, -1], 2)) == 0  # split 2-unlink


def test_determinant_mirror_and_orientation_independent():
    from qalt.poly import breadth_t, eval_at_s_equals_i

    for d in (trefoil(), hopf_link(), figure_eight()):
        assert determinant(mirror(d)) == determinant(d)
    # reversing any set of components leaves det and breadth unchanged
    d = hopf_link()
    base_det = determinant(d)
    base_breadth = breadth(d)
    for flips in ({0}, {1}, {0, 1}):
        v = jones_polynomial(orient(d, flips=flips))
        assert eval_at_s_equals_i(v).abs_pure() == base_det
        assert breadth_t(v) == base_breadth


def test_det_multiplicative_under_connected_sum():
    pairs = [(trefoil(), figure_eight()), (hopf_link(), trefoil())]
    for d1, d2 in pairs:
        s = connected_sum(d1, d2, 1, 1)
        assert determinant(s) == determinant(d1) * determinant(d2)


def test_goeritz_agrees_with_bracket(rng):
    for _ in range(25):
        d = random_braid_diagram(rng, 8, 3)
        assert determinant_goeritz(d) == determinant(d)
    for d in (trefoil(), figure_eight(), hopf_link(), generate_pretzel([3, 3, -3])):
        assert determinant_goeritz(d) == determinant(d)
    assert determinant_goeritz(unknot()) == 1
    assert determinant_goeritz(unlink(3)) == 0


def test_breadth_values():
    assert breadth(unknot()) == 0
    assert breadth(trefoil()) == 3
    for d in (trefoil(), figure_eight(), hopf_link(), close_braid([1, 2] * 4, 3)):
        assert breadth(d) <= max(len(d), 1)


def test_jones_skein_standard_convention(rng):
    # t^-1 V(L+) - t V(L-) = (s - s^-1) V(L0), all three oriented compatibly:
    # the smoothing respecting orientation is A at positive crossings and B
    # at negative ones, and writhes differ by known offsets.
    from qalt.jones import _normalize_bracket

    checked = 0
    for _ in range(10):
        d = random_braid_diagram(rng, 6, 3)
        od = orient(d)
        for i in range(len(d)):
            sign = od.signs[i]
            if sign > 0:
                d_plus, w_plus = d, od.writhe
                d_minus, w_minus = switch(d, i), od.writhe - 2
                kind = SmoothingKind.A
            else:
                d_plus, w_plus = switch(d, i), od.writhe + 2
                d_minus, w_minus = d, od.writhe
                kind = SmoothingKind.B
            d_zero, w_zero = smooth(d, i, kind), od.writhe - sign
            vp = _normalize_bracket(kauffman_bracket(d_plus), w_plus)
            vm = _normalize_bracket(kauffman_bracket(d_minus), w_minus)
            v0 = _normalize_bracket(kauffman_bracket(d_zero), w_zero)
            lhs = s_term(1, -2) * vp - s_term(1, 2) * vm
            rhs = (s_term(1, 1) - s_term(1, -1)) * v0
            assert lhs == rhs
            checked += 1
    assert checked > 20


def test_printed_skein_variant_fails_on_trefoil():
    # the relation printed as t V+ - t^-1 V- = (sqrt(t) + 1/sqrt(t)) V0 does
    # not hold for the trefoil triple under the standard convention
    d = close_braid([1, 1, 1], 2)  # positive trefoil diagram
    od = orient(d)
    assert od.signs[0] > 0
    from qalt.jones import _normalize_bracket

    vp = _normalize_bracket(kauffman_bracket(d), od.writhe)
    vm = _normalize_bracket(kauffman_bracket(switch(d, 0)), od.writhe - 2)
    v0 = _normalize_bracket(
        kauffman_bracket(smooth(d, 0, SmoothingKind.A)), od.writhe - 1
    )
    printed_lhs = s_term(1, 2) * vp - s_term(1, -2) * vm
    printed_rhs = (s_term(1, 1) + s_term(1, -1)) * v0
    assert printed_lhs != printed_rhs
    standard_lhs = s_term(1, -2) * vp - s_term(1, 2) * vm
    standard_rhs = (s_term(1, 1) - s_term(1, -1)) * v0
    assert standard_lhs == standard_rhs


def test_obstruction_verdicts():
    v = obstruction_check(close_braid([1, 2] * 4, 3))  # 8_19
    assert v.verdict == "NotQuasiAlternating"
    assert (v.deg_q, v.det) == (6, 3)
    assert obstruction_check(unknot()).verdict == "Inconclusive"
    nine46 = obstruction_check(generate_pretzel([3, 3, -3]))
    assert nine46.verdict == "Inconclusive"
    assert (nine46.deg_q, nine46.det) == (7, 9)
    assert isinstance(v, ObstructionVerdict)


def test_obstruction_check_computes_one_bracket(monkeypatch):
    calls = []
    engine = jones.kauffman_bracket

    def counted(d):
        calls.append(d)
        return engine(d)

    monkeypatch.setattr(jones, "kauffman_bracket", counted)
    d = generate_pretzel([3, 3, -3])
    v = obstruction_check(d)
    assert len(calls) == 1
    assert (v.det, v.breadth) == (determinant(d), breadth(d))


def test_crossing_limits():
    big = close_braid([1] * 17, 2)
    with pytest.raises(CrossingLimitError):
        jones_polynomial(big)
    with pytest.raises(CrossingLimitError):
        determinant(big)
    assert determinant_goeritz(big) == 17  # T(2,17), no bracket bound


def test_empty_link_errors():
    with pytest.raises(MalformedDiagramError):
        jones_polynomial(unlink(0))
    with pytest.raises(MalformedDiagramError):
        determinant_goeritz(unlink(0))


def test_non_planar_pd_is_rejected():
    # a valid arc multiset whose rotation system has genus 1: 2 faces, not 4
    d = parse_pd("X(1,1,2,3);X(2,4,3,4)")
    for entry in (q_polynomial, kauffman_bracket, jones_polynomial, obstruction_check):
        with pytest.raises(MalformedDiagramError):
            entry(d)


def test_split_diagrams_are_planar():
    # n + 2 faces per connected piece: trefoil, Hopf link and a free loop
    shifted = tuple(tuple(a + 100 for a in t) for t in hopf_link().crossings)
    split = PDDiagram(trefoil().crossings + shifted, 1)
    unlink_factor = IntLaurent({-1: 2, 0: -1})
    assert q_polynomial(split) == (
        unlink_factor ** 2 * q_polynomial(trefoil()) * q_polynomial(hopf_link())
    )
    assert jones_polynomial(split) == (
        HalfLaurent({1: -1, -1: -1}) ** 2
        * jones_polynomial(trefoil())
        * jones_polynomial(hopf_link())
    )
