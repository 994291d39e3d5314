import gc
import random
import weakref
from itertools import chain

import pytest

from qalt import diagram, jones, qpoly
from qalt.diagram import (
    FALLBACK_MAX_CROSSINGS,
    PDDiagram,
    _admit,
    _basis,
    _connected_pieces,
    _find,
    _sweep_steps,
    SmoothingKind,
    close_braid,
    connected_sum,
    figure_eight,
    generate_pretzel,
    hopf_link,
    mirror,
    parse_pd,
    render_pd,
    simplify,
    smooth,
    switch,
    trefoil,
    unknot,
    unlink,
)
from qalt.errors import CrossingLimitError, InternalConsistencyError, MalformedDiagramError
from qalt.intmat import laplacian_det
from qalt.jones import (
    _LOOP,
    ObstructionVerdict,
    _det_and_breadth,
    breadth,
    determinant,
    determinant_goeritz,
    jones_polynomial,
    kauffman_bracket,
    obstruction_check,
    orient,
)
from qalt.montesinos import pretzel_family_report
from qalt.poly import HalfLaurent, IntLaurent, breadth_t, eval_at_s_equals_i
from qalt.qpoly import q_polynomial

from conftest import random_braid_diagram

V_TREFOIL = HalfLaurent({-8: -1, -6: 1, -2: 1})  # -t^-4 + t^-3 + t^-1


def bracket_state_sum(d: PDDiagram) -> IntLaurent:
    """<D> over all 2^n smoothings, n <= FALLBACK_MAX_CROSSINGS (reference oracle)."""
    if len(_admit(d)) > FALLBACK_MAX_CROSSINGS:
        raise CrossingLimitError(f"{len(d)} crossings exceed the bound {FALLBACK_MAX_CROSSINGS}")
    n = len(d.crossings)
    total = IntLaurent.zero()
    for state in range(1 << n):
        parent: dict[int, int] = {}
        loops = d.free_loops
        a_minus_b = 0
        for i, (a, b, c, e) in enumerate(d.crossings):
            if state >> i & 1:  # A: join a-b, c-d
                a_minus_b += 1
                pairs = ((a, b), (c, e))
            else:
                a_minus_b -= 1
                pairs = ((a, e), (b, c))
            for x, y in pairs:
                rx, ry = _find(parent, x), _find(parent, y)
                if rx == ry:
                    loops += 1
                else:
                    parent[ry] = rx
        total = total + IntLaurent.term(1, a_minus_b) * _LOOP ** (loops - 1)
    return total


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


def test_orient_rejects_flips_that_name_no_component():
    # reversing one of the two components negates the sign of both clasp crossings
    assert orient(hopf_link()).writhe == -2
    assert orient(hopf_link(), flips={1}).writhe == 2
    assert orient(hopf_link(), flips={0, 1}).writhe == -2
    for flips in ({5}, {-1}, {2}, {0, 2}):
        with pytest.raises(MalformedDiagramError, match="name none of the 2 walk-components"):
            orient(hopf_link(), flips=flips)


def _bracket_cases(rng):
    """Seeded 2-6-strand closures of up to 14 crossings, some split (a generator
    that never occurs, or a disjoint union), some with a free loop and some
    with one crossing smoothed; then two closures wider than the sweep's cap."""
    for _ in range(30):
        d = random_braid_diagram(rng, 14, rng.randint(2, 6))
        if len(d) < 10 and rng.random() < 0.3:
            other = random_braid_diagram(rng, 4, 2)
            shift = max(chain(*d.crossings), default=0)
            d = PDDiagram(
                d.crossings + tuple(tuple(a + shift for a in t) for t in other.crossings),
                d.free_loops + other.free_loops,
            )
        if rng.random() < 0.2:
            d = PDDiagram(d.crossings, d.free_loops + 1)
        if d.crossings and rng.random() < 0.3:
            kind = rng.choice((SmoothingKind.A, SmoothingKind.B))
            d = smooth(d, rng.randrange(len(d)), kind)
        yield d
    yield close_braid([1, -2, 3, -4] * 3, 5)
    yield close_braid([1, -2, 3, -4, 5] * 2, 6)


def test_bracket_engines_agree(rng):
    split = wide = 0
    for d in _bracket_cases(rng):
        assert kauffman_bracket(d) == bracket_state_sum(d), d
        pieces = [PDDiagram([d.crossings[i] for i in p]) for p in _connected_pieces(d)]
        split += len(pieces) + d.free_loops > 1
        wide += any(_sweep_steps(p) is None for p in pieces)
    assert split >= 5 and wide >= 2


# simplify removes a clasp of two arcs that bound no face, and with it 2 from
# the writhe; a bracket computed on its output was wrong by A^(+-6)
CLASPED = [
    close_braid([1, -1, -1, 4, 3, -1, 2, 4], 5),
    close_braid([2, 3, -4, 1, -4, -4, 4, 1, 1], 5),
]


@pytest.mark.parametrize("d", CLASPED, ids=render_pd)
def test_bracket_keeps_the_framing_of_a_clasp(d):
    from qalt.jones import _normalize_bracket

    assert abs(orient(simplify(d)).writhe - orient(d).writhe) == 2
    state_sum = bracket_state_sum(d)
    assert kauffman_bracket(d) == state_sum
    assert jones_polynomial(d) == _normalize_bracket(state_sum, orient(d).writhe)


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
    # simplify removes each kink; the bracket sweeps the kinked diagram
    # itself, so a kink carries no factor of its own
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


def checkerboard_classes(d: PDDiagram) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """(face count, Goeritz edges) of the white and of the black class of a
    connected diagram, its faces colored here by a walk over the face table:
    the corners k and k + 1 of a crossing lie in faces of opposite colors,
    and the face of corner 0 of crossing 0 is white.  Each crossing joins
    the two faces of a class at its corners j and j + 2, j in {0, 1}, with
    sign 1 - 2j."""
    _, face = d.faces
    touching: dict[int, list[int]] = {}
    for corner, f in enumerate(face):
        touching.setdefault(f, []).append(corner)
    color = {face[0]: 0}
    stack = [face[0]]
    while stack:
        f = stack.pop()
        for corner in touching[f]:
            for other in ((corner & ~3) | (corner + 1) % 4, (corner & ~3) | (corner - 1) % 4):
                g = face[other]
                if g not in color:
                    color[g] = color[f] ^ 1
                    stack.append(g)
                assert color[g] != color[f], "adjacent corners share a color"
    classes = []
    for side in (0, 1):
        index = {f: i for i, f in enumerate(f for f in color if color[f] == side)}
        edges = []
        for c in range(len(d.crossings)):
            j = 0 if color[face[4 * c]] == side else 1
            edges.append((index[face[4 * c + j]], index[face[4 * c + j + 2]], 1 - 2 * j))
        classes.append((len(index), edges))
    return classes


@pytest.fixture
def minors(monkeypatch):
    """(order, sorted edge signs) of each Laplacian minor that
    `determinant_goeritz` takes."""
    seen = []
    original = jones.laplacian_det

    def recorded(n, edges):
        seen.append((n - 1, sorted(w for _, _, w in edges)))
        return original(n, edges)

    monkeypatch.setattr(jones, "laplacian_det", recorded)
    return seen


def _checkerboard_cases():
    rng = random.Random(1978)
    cases = [random_braid_diagram(rng, 12, rng.randint(2, 4)) for _ in range(20)]
    cases += [close_braid([1, -2] * k, 3) for k in (1, 2, 5, 20)]
    cases += [close_braid([1, -2, 3, -2] * k, 4) for k in (2, 6)]
    for family, params in (("A", (5, 7, 9)), ("B", (5, 7, 9)), ("C", (3, 4, 8))):
        cases += [generate_pretzel(pretzel_family_report(family, r).entries) for r in params]
    cases += [connected_sum(trefoil(), figure_eight(), 1, 1), connected_sum(hopf_link(), trefoil(), 1, 1)]
    cases += [connected_sum(generate_pretzel([3, 3, -3]), close_braid([1, -2] * 4, 3), 1, 1)]
    cases += [KINKED_TREFOIL, mirror(KINKED_TREFOIL), *UNKNOT_KINKS, *CLASPED]
    return [d for d in cases if len(_connected_pieces(d)) == 1 and not d.free_loops]


@pytest.mark.parametrize("d", _checkerboard_cases(), ids=render_pd)
def test_both_checkerboard_classes_give_the_determinant(minors, d):
    (nw, white), (nb, black) = checkerboard_classes(d)
    assert abs(laplacian_det(nw, white)) == abs(laplacian_det(nb, black))
    assert abs(laplacian_det(nw, white)) == determinant_goeritz(d) == determinant(d)
    # the minor of the class with fewer faces, white on a tie
    edges = black if nb < nw else white
    assert minors == [(min(nw, nb) - 1, sorted(w for _, _, w in edges))]


@pytest.mark.parametrize("p, q, r", [(40, 40, -40), (31, 30, -29), (300, 300, -300)])
def test_a_pretzel_takes_the_minor_of_its_three_black_faces(minors, p, q, r):
    d = generate_pretzel([p, q, r])
    (nw, white), (nb, black) = checkerboard_classes(d)
    assert (nw, nb) == (len(d) - 1, 3)
    assert abs(laplacian_det(nw, white)) == abs(laplacian_det(nb, black)) == abs(p * q + q * r + r * p)
    assert determinant_goeritz(d) == determinant(d) == abs(p * q + q * r + r * p)
    assert [order for order, _ in minors] == [2]


def test_a_balanced_closure_keeps_the_white_minor(minors):
    for k in (3, 10, 100, 400):
        d = simplify(close_braid([1, -2] * k, 3))
        (nw, white), (nb, _) = checkerboard_classes(d)
        determinant_goeritz(d)
        # k + 1 faces in each class, and the white class's minor, of order k
        assert nw == nb == k + 1
        assert minors[-1] == (k, sorted(w for _, _, w in white))


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
    # a first check fills the transition cache, so the counted one derives the
    # tables of its own diagram only
    obstruction_check(generate_pretzel([3, 3, -3]))
    calls = []
    engine = jones.kauffman_bracket
    runs = {name: [] for name in ("_faces", "_connected_pieces", "_sweep_steps")}

    def counting(fn, seen):
        def counted(d):
            seen.append(d)
            return fn(d)

        return counted

    for name, seen in runs.items():
        monkeypatch.setattr(diagram, name, counting(getattr(diagram, name), seen))

    def counted(d, *bound):
        calls.append(d)
        return engine(d, *bound)

    monkeypatch.setattr(jones, "kauffman_bracket", counted)
    d = generate_pretzel([3, 3, -3])
    v = obstruction_check(d)
    assert len(calls) == 1
    # P(3,3,-3) is reduced and connected: Q and the bracket share one face
    # walk, one piece split and one sweep plan, all kept on `d`
    for name, seen in runs.items():
        assert len(seen) == 1 and seen[0] is d, name
    assert (v.det, v.breadth) == (determinant(d), breadth(d))


def test_a_checked_diagram_is_freed_by_its_last_reference():
    # the tables a check keeps on a connected diagram hold no reference back
    # to it, so dropping the last reference frees it with the collector off
    d = close_braid([1, -2] * 5, 3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        obstruction_check(d)
        assert {"faces", "pieces", "plan"} <= vars(d).keys() and d.parts == [d]
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_reduced_link_is_checked_without_the_arc_table(rng):
    # the walks, simplify's first scan and Goeritz read the end table alone, so
    # checking a reduced diagram never builds the arc-keyed `ends`, also when
    # it has arcs over at both ends, where simplify looks for clasps
    over_over = 0
    for _ in range(60):
        d = simplify(random_braid_diagram(rng, 14, rng.randint(3, 5)))
        if not d.crossings:
            continue
        assert simplify(d) is d
        obstruction_check(d)
        determinant_goeritz(d)
        assert "ends" not in vars(d) and {"partner", "faces", "pieces"} <= vars(d).keys()
        n4 = 4 * len(d)
        over_over += any(d.partner[e] & 1 for e in range(1, n4, 2))
    assert over_over > 10


def test_obstruction_check_plans_each_piece_of_a_split_diagram_once(monkeypatch):
    # a trefoil, a figure-eight and a free loop: reduced, so Q and the bracket
    # expand the same object, and each piece is planned once between them
    def split():
        shifted = tuple(tuple(a + 100 for a in t) for t in figure_eight().crossings)
        return PDDiagram(trefoil().crossings + shifted, 1)

    obstruction_check(split())  # fills the transition cache
    planned = []

    def counted(p):
        planned.append(p)
        return _sweep_steps(p)

    monkeypatch.setattr(diagram, "_sweep_steps", counted)
    d = split()
    assert simplify(d) is d
    v = obstruction_check(d)
    assert len(d.parts) == 2 and [p.free_loops for p in d.parts] == [0, 0]
    assert len(planned) == 2 and all(p is q for p, q in zip(planned, d.parts))
    assert v.det == determinant_goeritz(d) == 0


def _unreduced_cases():
    """Diagrams that `simplify` changes: kinked and clasped closures, seeded
    random closures whose pieces all sweep, a connected sum of two, and a
    split diagram of two with free loops."""
    cases = [KINKED_TREFOIL, mirror(KINKED_TREFOIL), close_braid([1, 1, 1, 2], 3), *CLASPED]
    rng = random.Random(24)
    while len(cases) < 25:
        d = random_braid_diagram(rng, 14, rng.randint(3, 4))
        if (reduced := simplify(d)) is not d and all(p.plan is not None for p in reduced.parts):
            cases.append(d)
    cases.append(connected_sum(KINKED_TREFOIL, CLASPED[1], 1, 1))
    shifted = tuple(tuple(a + 100 for a in t) for t in CLASPED[0].crossings)
    cases.append(PDDiagram(KINKED_TREFOIL.crossings + shifted, 2))
    return cases


UNREDUCED = _unreduced_cases()


@pytest.mark.parametrize("d", UNREDUCED, ids=render_pd)
def test_obstruction_check_expands_the_reduced_diagram_alone(monkeypatch, d):
    # Q and the bracket both expand simplify(d): each of its pieces is planned
    # once, no strand is walked for an orientation, and det and the breadth
    # read from its bracket are those of V(d)
    def fresh():
        return PDDiagram(d.crossings, d.free_loops)

    obstruction_check(fresh())  # fills the transition cache
    planned, oriented = [], []

    def counted(p):
        planned.append(p.key())
        return _sweep_steps(p)

    def counted_orient(*args, **kwargs):
        oriented.append(args)
        return orient(*args, **kwargs)

    monkeypatch.setattr(diagram, "_sweep_steps", counted)
    monkeypatch.setattr(jones, "orient", counted_orient)
    v = obstruction_check(fresh())
    monkeypatch.undo()
    reduced = simplify(d)
    assert reduced is not d and oriented == []
    assert planned == [p.key() for p in reduced.parts]
    jones_v = jones_polynomial(d)
    assert (v.det, v.breadth) == (eval_at_s_equals_i(jones_v).abs_pure(), breadth_t(jones_v))
    assert v.det == determinant_goeritz(d)


def test_det_and_breadth_reject_a_bracket_no_link_has():
    with pytest.raises(InternalConsistencyError, match="is zero"):
        _det_and_breadth(IntLaurent.zero())
    with pytest.raises(InternalConsistencyError, match="differ mod 4"):
        _det_and_breadth(IntLaurent({0: 1, 2: 1}))
    with pytest.raises(InternalConsistencyError, match="differ mod 4"):
        _det_and_breadth(IntLaurent({-3: 2, 1: -1, 3: 1}))


def test_det_and_breadth_agree_with_the_jones_route(rng):
    # the Jones route orients the unreduced diagram and evaluates V at s = i;
    # determinant and breadth read the bracket of simplify(d)
    for _ in range(300):
        d = random_braid_diagram(rng, 12, rng.randint(2, 5))
        v = jones_polynomial(d)
        expected = (eval_at_s_equals_i(v).abs_pure(), breadth_t(v))
        assert _det_and_breadth(kauffman_bracket(d)) == expected, d
        assert (determinant(d), breadth(d)) == expected, d


def test_crossing_limits():
    # the bracket has no bound by default, and a bound counts only the
    # crossings of the pieces with no sweep plan; the state sum sweeps none
    big = close_braid([1] * 17, 2)
    assert determinant(big) == determinant_goeritz(big) == 17  # T(2,17)
    with pytest.raises(CrossingLimitError, match="17 crossings exceed the bound 16"):
        bracket_state_sum(big)
    assert kauffman_bracket(figure_eight(), 3) == bracket_state_sum(figure_eight())
    wide = close_braid([1, -2, 3, -4] * 4, 5)
    with pytest.raises(CrossingLimitError, match="16 unplanned crossings exceed the bound 15"):
        kauffman_bracket(wide, 15)
    # the paper's family C at n = 12, 36 crossings, with default bounds
    d = generate_pretzel([12, 12, -12])
    v = obstruction_check(d)
    report = pretzel_family_report("C", 12)
    assert (v.deg_q, v.det) == (report.deg_q, report.det) == (34, 144)
    assert determinant_goeritz(d) == 144


def test_a_nan_or_negative_bound_raises_before_any_walk(monkeypatch):
    # a NaN bound bounds nothing, and a negative one refuses diagrams that
    # need no fallback; 0 admits a diagram whose pieces all plan
    d = close_braid([1, -2] * 10, 3)
    outputs = (q_polynomial(d), kauffman_bracket(d), jones_polynomial(d), obstruction_check(d))
    assert (q_polynomial(d, 0), kauffman_bracket(d, 0), jones_polynomial(d, 0), obstruction_check(d, 0, 0)) == outputs

    def walk(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(diagram, "_faces", walk)
    monkeypatch.setattr(jones, "_expand", walk)
    monkeypatch.setattr(qpoly, "_expand", walk)
    fresh = close_braid([1, -2] * 10, 3)
    for bound in (float("nan"), -1):
        for call in (
            lambda: q_polynomial(fresh, bound),
            lambda: kauffman_bracket(fresh, bound),
            lambda: jones_polynomial(fresh, bound),
            lambda: obstruction_check(fresh, bound),
            lambda: obstruction_check(d, 16, bound),  # d's faces were walked above
        ):
            with pytest.raises(ValueError, match=f"the crossing bound {bound} "):
                call()


def test_goeritz_plans_no_sweep(monkeypatch):
    planned = []

    def counted(p):
        planned.append(p)
        return _sweep_steps(p)

    monkeypatch.setattr(diagram, "_sweep_steps", counted)
    # the closure of (s1 s2^-1)^k has det L_2k - 2, L_n the Lucas numbers
    lucas = [2, 1]
    while len(lucas) <= 1600:
        lucas.append(lucas[-1] + lucas[-2])
    assert determinant_goeritz(close_braid([1, -2] * 400, 3)) == lucas[800] - 2
    # the minor is the Laplacian of the wheel's rim plus the identity: as the
    # elimination goes round the cycle, the row that closes it meets the pivot
    # row at every step
    assert determinant_goeritz(close_braid([1, -2] * 800, 3)) == lucas[1600] - 2
    assert planned == []


def test_empty_link_errors():
    # every entry point admits its input through one gate, with one message
    # for the empty link and one for a tangle, before any face walk
    entries = (
        q_polynomial,
        kauffman_bracket,
        jones_polynomial,
        determinant_goeritz,
        bracket_state_sum,
        obstruction_check,
    )
    crossings, boundary = _basis(4, ((0, 2), (1, 3)))
    tangles = (
        PDDiagram([(1, 1, 2, 3)], 0, (4, 4, 2, 3)),
        PDDiagram(crossings, 0, boundary),
    )
    for entry in entries:
        with pytest.raises(MalformedDiagramError, match="the empty link"):
            entry(PDDiagram((), 0))
        for tangle in tangles:
            with pytest.raises(MalformedDiagramError, match="a tangle has no link invariants"):
                entry(tangle)


def test_non_planar_pd_is_rejected():
    # a valid arc multiset whose rotation system has genus 1: 2 faces, not 4
    d = parse_pd("X(1,1,2,3);X(2,4,3,4)")
    # the same code beside a trefoil: split, and still not planar
    beside = PDDiagram(
        d.crossings + tuple(tuple(a + 10 for a in t) for t in trefoil().crossings)
    )
    entries = (
        q_polynomial,
        kauffman_bracket,
        jones_polynomial,
        obstruction_check,
        determinant_goeritz,
        bracket_state_sum,
    )
    for diagram in (d, beside):
        for entry in entries:
            with pytest.raises(MalformedDiagramError):
                entry(diagram)


def test_a_non_planar_code_raises_on_every_call():
    # a failed face walk is not kept: the second call walks and raises again
    d = parse_pd("X(1,1,2,3);X(2,4,3,4)")
    for _ in range(2):
        for entry in (q_polynomial, kauffman_bracket, determinant_goeritz):
            with pytest.raises(MalformedDiagramError, match="not planar"):
                entry(d)
        with pytest.raises(MalformedDiagramError, match="not planar"):
            d.faces


# (s1 s2^-1 s3 s4^-1)^4 closed: its frontier grows past SWEEP_WIDTH in PD order
WIDE_Q = IntLaurent.parse(
    "78x^15+508x^14+964x^13-296x^12-2682x^11-1384x^10+2646x^9+2092x^8-1334x^7"
    "-1224x^6+402x^5+396x^4-72x^3-120x^2-2x+29"
)
WIDE_BRACKET = IntLaurent.parse(
    "x^32-8x^28+32x^24-86x^20+177x^16-292x^12+407x^8-491x^4+521-491x^-4+407x^-8"
    "-292x^-12+177x^-16-86x^-20+32x^-24-8x^-28+x^-32"
)


def test_a_piece_too_wide_to_sweep_falls_back_once_planned(monkeypatch):
    d = close_braid([1, -2, 3, -4] * 4, 5)
    planned = []

    def counted(p):
        planned.append(p)
        return _sweep_steps(p)

    monkeypatch.setattr(diagram, "_sweep_steps", counted)
    assert d.plan is None
    # the kept None sends Q to the switch chain and the bracket to smoothing
    assert q_polynomial(d, 16) == WIDE_Q
    assert kauffman_bracket(d) == WIDE_BRACKET
    assert sum(p is d for p in planned) == 1


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
