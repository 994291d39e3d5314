import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import pytest

from qalt import diagram, jones, qpoly
from qalt.diagram import (
    SWEEP_WIDTH,
    PDDiagram,
    SmoothingKind,
    _basis,
    _connected_pieces,
    _faces,
    _glued,
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
from qalt.kanenobu import KANENOBU_DET, Q_8_8, Q_8_9
from qalt.poly import IntLaurent, combine as _combine, nbytes_for, unpack
from qalt.qpoly import (
    _chain,
    _q,
    check_lemma22,
    q_degree,
    q_polynomial,
)

from conftest import longest_bridge, matchings, random_braid_diagram

P = IntLaurent.parse

# the sweep computes each transition once, into its row cache `diagram._row`;
# the oracles here ask for transitions directly, so they keep their own cache
_transition = lru_cache(maxsize=None)(diagram._transition)

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
    # a 9-crossing closed 4-braid diagram of 8_8 gives Kanenobu's Q(8_8) and det
    d = close_braid([1, 1, 1, 2, -1, -3, 2, -3, -3], 4)
    assert len(d) == 9
    assert q_polynomial(d) == Q_8_8
    assert determinant_goeritz(d) == KANENOBU_DET


def test_q_8_9_from_a_braid_diagram():
    # the closed 3-braid s1^3 s2^-1 s1 s2^-3 is 8_9: Kanenobu's Q(8_9), det 25,
    # and, 8_9 being amphichiral, a Jones polynomial symmetric under t -> 1/t
    d = close_braid([1, 1, 1, -2, 1, -2, -2, -2], 3)
    assert len(d) == 8
    assert q_polynomial(d) == Q_8_9
    assert determinant_goeritz(d) == KANENOBU_DET
    v = jones.jones_polynomial(d)
    assert {-e: c for e, c in v.items()} == dict(v.items())


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
    # the bound counts the crossings of the pieces with no sweep plan, and
    # only those, so a diagram whose pieces all sweep runs at any size
    d = close_braid([1, -2] * 13, 3)
    q = q_polynomial(d)
    assert q == q_polynomial(d, math.inf)
    assert _evaluations(q) == (1, 1, determinant_goeritz(d) ** 2)
    # (s1 s2^-1 s3 s4^-1)^4 closed has no plan within SWEEP_WIDTH points
    wide = close_braid([1, -2, 3, -4] * 4, 5)
    with pytest.raises(CrossingLimitError, match="16 unplanned crossings exceed the bound 15"):
        q_polynomial(wide, 15)


def test_crossing_bound_counts_the_reduced_pieces():
    # w s1^3 w^-1 on 5 strands has no plan; R2 moves leave the trefoil and
    # three free loops, which the sweep plans, so no crossing falls back
    w = [2, -3, 4, -2, 3, -4]
    d = close_braid(w + [1, 1, 1] + [-x for x in reversed(w)], 5)
    assert len(d) == 15 and d.plan is None
    assert q_polynomial(d, 0) == P("2x^-1-1") ** 3 * Q_TREFOIL


def test_crossing_bound_raises_before_the_switch_chain(monkeypatch):
    # the switch chain takes about 30 s on this 20-crossing closure
    def chain(d, memo):
        raise AssertionError("the switch chain ran")

    monkeypatch.setattr(qpoly, "_chain", chain)
    d = close_braid([1, -2, 3, -4] * 5, 5)
    with pytest.raises(CrossingLimitError, match="20 unplanned crossings exceed the bound 16"):
        q_polynomial(d)


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


@pytest.mark.parametrize("width", [2, 4, 6, 8])
def test_basis_tangles_evaluate_to_their_unit_vectors(width):
    basis = list(matchings(tuple(range(width))))
    assert len(basis) == {2: 1, 4: 3, 6: 15, 8: 105}[width]
    noncrossing = 0
    for m in basis:
        crossings, boundary = _basis(width, m)
        tangle = PDDiagram(crossings, 0, boundary)
        assert _q(tangle, {}) == {m: 1}
        if not crossings:  # a crossingless tangle: a basis tangle of the bracket
            noncrossing += 1
            assert jones._bracket(tangle, {}) == {m: 1}
        # capped outside its disk, the drawing is a planar link diagram
        caps = list(zip(boundary[::2], boundary[1::2]))
        _faces(PDDiagram(*_relabel(crossings, caps, 0)))
        if width == 8:  # no glue at 8 points keeps the frontier within the cap
            continue
        # the shared transition runs Q's whole engine (`_q`) on the glued
        # tangle; it must equal the switch chain on the reduced glued tangle
        glues = [(i, r, s) for i in range(width) for r in range(1, min(width, 4) + 1) for s in (0, 1)]
        for glue in glues + [(i, 2, None) for i in range(width)]:
            expected = _chain(simplify(_glued(width, m, glue)), {})
            assert _transition(_q, width, m, glue) == expected, (m, glue)
    assert noncrossing == {2: 1, 4: 2, 6: 5, 8: 14}[width]  # Catalan(width / 2)


def test_closing_transitions_equal_the_skein_recursion():
    # A link sweep closes its frontier by a crossing that meets all 4 points,
    # and that transition runs the engine on the glued link; `_q` reduces it
    # first (without R1/R2 it would ask for closing transitions forever).
    # Each must equal the engine's own recursion on the glued link.
    closing = [(i, 4, s) for i in range(4) for s in (0, 1)]
    cases = 0
    for engine, recursion in ((_q, _chain), (jones._bracket, jones._smoothing)):
        for m in matchings(tuple(range(4))):
            if engine is jones._bracket and _basis(4, m)[0]:
                continue  # the bracket's basis holds the crossingless tangles only
            for glue in closing:
                glued = _glued(4, m, glue)
                assert not glued.boundary
                assert _transition(engine, 4, m, glue) == recursion(glued, {}), (m, glue)
                cases += 1
    assert cases == 24 + 16


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
            arcs = (rng.choice(sorted(set(chain(*d.crossings)))) for d in (d1, d2))
            yield connected_sum(d1, d2, *arcs)
    # alternating 6-strand closures: their frontier outgrows the cap
    for k in (2, 3):
        yield close_braid([1, -2, 3, -4, 5] * k, 6)
        yield close_braid([1, 3, 5, -2, -4] * k, 6)


def _pieces(d):
    return [PDDiagram([d.crossings[i] for i in piece]) for piece in _connected_pieces(d)]


def _engine_pieces(d):
    """(piece, engine) per piece: Q's pieces of the reduced diagram, the
    bracket's of the diagram itself."""
    return [*((p, _q) for p in _pieces(simplify(d))), *((p, jones._bracket) for p in _pieces(d))]


def _planned_pieces(diagrams):
    """(plan, engine) per piece of `_engine_pieces` that sweeps."""
    for d in diagrams:
        for p, engine in _engine_pieces(d):
            steps = _sweep_steps(p)
            if steps is not None:
                yield steps, engine


def test_sweep_equals_the_switch_chain():
    # each sweep must equal its engine's skein recursion
    recursions = {_q: _chain, jones._bracket: jones._smoothing}
    swept = wide = 0
    for d in _sweep_cases():
        q = q_polynomial(d, 64)
        assert _evaluations(q) == (
            1, (-2) ** (num_components(d) - 1), determinant_goeritz(d) ** 2
        )
        for p, engine in _engine_pieces(d):
            steps = _sweep_steps(p)
            if steps is None:
                wide += 1
            else:
                swept += 1
                assert max(width for width, _ in steps) <= SWEEP_WIDTH
                assert _sweep(steps, engine) == recursions[engine](p, {}), p
    assert swept > 100 and wide >= 8


def _combining_sweep(steps, engine):
    """The reference for `_sweep`: the state as IntLaurent vectors, each step
    summed by `combine`."""
    state = {(): IntLaurent.const(1)}
    for width, glue in steps:
        state = _combine((c, _transition(engine, width, m, glue)) for m, c in state.items())
    return state


def _counting_passes(monkeypatch):
    """The passes of every sweep from here on, in order: "bounds" for a pass
    of `_bounds`, and the byte width of each value pass, `_packed_sweep`."""
    passes = []
    bounds, packed = diagram._bounds, diagram._packed_sweep

    def counted_bounds(programs):
        passes.append("bounds")
        return bounds(programs)

    def counted_values(programs, nbytes):
        passes.append(nbytes)
        return packed(programs, nbytes)

    monkeypatch.setattr(diagram, "_bounds", counted_bounds)
    monkeypatch.setattr(diagram, "_packed_sweep", counted_values)
    return passes


def _gain(steps, engine):
    """The product of the gains of the step programs of a sweep."""
    return math.prod(gain for _, _, gain, _ in diagram._step_programs(steps, engine))


@pytest.mark.parametrize("k, q_bits", [(50, 77), (100, 156)])
def test_wide_coefficients_sweep_once_at_their_width(k, q_bits, monkeypatch):
    # the reduced alternating closure of (s1 s2^-1)^k is one piece, swept
    d = close_braid([1, -2] * k, 3)
    q = q_polynomial(d)
    bracket = jones.kauffman_bracket(d)
    assert max(abs(v) for _, v in q.items()).bit_length() == q_bits
    assert _evaluations(q) == (1, (-2) ** (num_components(d) - 1), determinant_goeritz(d) ** 2)
    # the oracle's transitions run sweeps of their own: build it before counting
    want = {engine: _combining_sweep(d.plan, engine) for engine in (_q, jones._bracket)}
    bound = {engine: _dict_sweep(d.plan, engine, 4)[1][0][1] for engine in want}
    passes = _counting_passes(monkeypatch)
    for engine, value in ((_q, q), (jones._bracket, bracket)):
        assert nbytes_for(_gain(d.plan, engine)) > 4
        passes.clear()
        swept = _sweep(d.plan, engine)
        assert swept == want[engine] == {(): value}
        # coefficients past 63 bits: the gains call for the bound pass, and
        # the one value pass runs at the width of the exact bound
        assert passes == ["bounds", nbytes_for(bound[engine])] and passes[1] > 8


def _skewed(factor):
    """An engine whose every transition is Q's times `factor`."""

    def skewed(d, memo):
        return {m: c * factor for m, c in _q(d, memo).items()}

    return skewed


def test_a_pass_too_narrow_keeps_entries_that_pack_to_zero(monkeypatch):
    # each transition times x - X: at that X every packed entry is 0, yet no
    # entry is the zero polynomial, and their bounds of X + 1 and more keep them
    steps = trefoil().plan
    programs = diagram._step_programs(steps, _skewed(IntLaurent({1: 1, 0: -256})))
    low, state = diagram._packed_sweep(programs, 1)
    bounds = diagram._bounds(programs)
    assert state and list(state) == list(bounds)
    assert all(v == 0 and bounds[i] >= 1 << 7 for i, v in state.items())
    # at X = 2^32 every entry packs to 0 too: `_sweep` runs its one value
    # pass at the width of the exact bound instead
    factor = IntLaurent({1: 1, 0: -(1 << 32)})
    skewed = _skewed(factor)
    programs = diagram._step_programs(steps, skewed)
    _, state = diagram._packed_sweep(programs, 4)
    (v,) = state.values()
    (bound,) = diagram._bounds(programs).values()
    assert v == 0 and bound >= 1 << 31
    want = _combining_sweep(steps, skewed)
    passes = _counting_passes(monkeypatch)
    swept = _sweep(steps, skewed)
    assert swept == want == {(): Q_TREFOIL * factor ** len(steps)}
    assert passes == ["bounds", nbytes_for(bound)]
    assert max(abs(v) for _, v in want[()].items()).bit_length() < 8 * passes[1]


def _dict_sweep(steps, engine, nbytes):
    """The reference for `_packed_sweep`: the id-keyed dict loop, with the
    state a dict {id: [value, bound]} and every entry times every term of
    its row summed per target id, the entry first shifted from its row's
    lowest exponent to the step's."""
    b = 8 * nbytes
    low = 0
    state = {0: [1, 1]}
    for width, glue in steps:
        rows = [(_row(engine, width, diagram._MATCHINGS[i], glue), v, bound) for i, (v, bound) in state.items()]
        shift = min(lo for (lo, _), _, _ in rows)
        state = {}
        for (lo, entries), v, bound in rows:
            v <<= b * (lo - shift)
            for i, tv, tb, k in entries:
                acc = state.setdefault(i, [0, 0])
                acc[0] += v * tv << b * k
                acc[1] += bound * tb
        low += shift
    return low, state


@lru_cache(maxsize=None)
def _row(engine, width, matching, glue):
    """The packed row of a transition, kept apart from the sweep's own cache."""
    return diagram._pack_row(_transition(engine, width, matching, glue))


def _random_closures(seed, count, letters):
    """Seeded random 3- and 4-braid closures of 1 to `letters` letters."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_braid_diagram(rng, letters, rng.choice((3, 4)))


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
def test_the_compiled_sweep_equals_the_dict_loop(nbytes):
    # the values at widths where digits carry and where they do not, and the
    # bound pass, which reads no width, against the loop's bounds
    pieces = list(_planned_pieces(chain(_sweep_cases(), _random_closures(30, 24, 60))))
    for steps, engine in pieces:
        programs = diagram._step_programs(steps, engine)
        low, state = _dict_sweep(steps, engine, nbytes)
        assert diagram._packed_sweep(programs, nbytes) == (low, {i: v for i, (v, _) in state.items()}), (steps, engine)
        assert diagram._bounds(programs) == {i: bound for i, (_, bound) in state.items()}, (steps, engine)
    assert len(pieces) > 200
    # Q times (x - 256) per step: at 1 byte every entry packs to 0
    skewed = _skewed(IntLaurent({1: 1, 0: -256}))
    steps = trefoil().plan
    programs = diagram._step_programs(steps, skewed)
    low, state = _dict_sweep(steps, skewed, nbytes)
    assert diagram._packed_sweep(programs, nbytes) == (low, {i: v for i, (v, _) in state.items()})
    assert diagram._bounds(programs) == {i: bound for i, (_, bound) in state.items()}
    assert all(v == 0 for v, _ in state.values()) == (nbytes == 1)


def _wide_pieces():
    """Closures whose coefficients pass 40 bits."""
    yield close_braid([1, -2] * 50, 3)
    yield close_braid([1, -2, 3, -1, 2] * 12, 4)
    rng = random.Random(5)
    for _ in range(3):
        yield close_braid([rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(200)], 4)


def test_the_final_bounds_do_not_depend_on_the_width():
    # the dict loop's bounds are the same at every width, and equal to those
    # of the bound pass, which sets the width before any value is computed
    pairs = 0
    for d in _wide_pieces():
        for engine, swept in ((_q, simplify(d)), (jones._bracket, d)):
            (piece,) = swept.parts
            bounds = [
                {i: bound for i, (_, bound) in _dict_sweep(piece.plan, engine, nbytes)[1].items()}
                for nbytes in (1, 2, 4, 8, 16, 32)
            ]
            assert list(bounds[0]) == [0] and max(bounds[0].values()).bit_length() > 40
            assert all(b == bounds[0] for b in bounds), (piece, engine)
            assert diagram._bounds(diagram._step_programs(piece.plan, engine)) == bounds[0]
            pairs += 1
    assert pairs == 10


def test_the_gains_bound_the_final_entry_and_set_the_width(monkeypatch):
    # soundness of the width chosen before the sweep: the product of the
    # gains is at least the exact bound of the final entry, and the one value
    # pass runs at `nbytes_for` of that bound, the width a pass at 4 bytes
    # followed by one at its bound's width would have decoded at
    pieces = list(_planned_pieces(chain(_sweep_cases(), _random_closures(31, 24, 120), _wide_pieces())))
    oracle = [(steps, engine, _dict_sweep(steps, engine, 4)[1][0][1]) for steps, engine in pieces]
    passes = _counting_passes(monkeypatch)
    wide = loose = 0
    for steps, engine, bound in oracle:
        gain = _gain(steps, engine)
        assert gain >= bound, (steps, engine)
        passes.clear()
        _sweep(steps, engine)
        assert passes[-1] == nbytes_for(bound), (steps, engine)
        wide += passes[-1] > 4
        loose += nbytes_for(gain) > passes[-1] == 4  # the bound pass kept 4 bytes
    assert len(oracle) > 200 and wide >= 30 and loose >= 10


def test_a_swept_piece_takes_one_value_pass(monkeypatch):
    # at the width of its exact bound, after a bound pass only when the
    # product of its gains needs more than 4 bytes
    passes = _counting_passes(monkeypatch)
    counts = [0, 0]
    for steps, engine in _planned_pieces((*_sweep_cases(), close_braid([1, -2] * 100, 3))):
        value = _sweep(steps, engine)  # fills the sweep caches, whose transitions may sweep
        passes.clear()
        assert _sweep(steps, engine) == value
        bounded = nbytes_for(_gain(steps, engine)) > 4
        assert passes[:-1] == ["bounds"] * bounded, (steps, passes)
        assert passes[-1] == (nbytes_for(diagram._bounds(diagram._step_programs(steps, engine))[0]) if bounded else 4)
        counts[bounded] += 1
    # only the 200-crossing closure's Q and bracket pass 31 bits
    assert counts[0] > 100 and counts[1] == 2


def _fresh_caches(monkeypatch, bound=diagram._PROGRAMS_MAX, compile=None):
    """Empty `_row` and `_program` caches for the rest of a test, at most
    `bound` programs, each compiled by `compile` when given: a sweep then
    packs every row and compiles every program it runs."""
    row = lru_cache(maxsize=None)(diagram._row.__wrapped__)
    program = lru_cache(maxsize=bound)(compile or diagram._program.__wrapped__)
    monkeypatch.setattr(diagram, "_row", row)
    monkeypatch.setattr(diagram, "_program", program)
    return row, program


def _counting_calls(monkeypatch):
    """The names of the `_pack_row` and `_transition` calls from here on,
    with their arguments; only a `_row` miss makes them."""
    calls = []
    for name in ("_pack_row", "_transition"):
        original = getattr(diagram, name)

        def counted(*args, _original=original, _name=name):
            calls.append((_name, args))
            return _original(*args)

        monkeypatch.setattr(diagram, name, counted)
    return calls


def test_matching_ids_are_one_table_of_at_most_125(monkeypatch):
    # the ids are process-wide and fixed at import: every matching of at most
    # SWEEP_WIDTH points, each once, and no sweep of either engine changes them
    table = diagram._MATCHINGS
    assert isinstance(table, tuple)
    before = list(table)
    row, _ = _fresh_caches(monkeypatch)
    calls = _counting_calls(monkeypatch)
    for steps, engine in _planned_pieces(_sweep_cases()):
        _sweep(steps, engine)
    assert diagram._MATCHINGS is table and list(table) == before
    # (w-1)!! matchings of w points: 1 + 1 + 3 + 15 + 105 = 125 up to 8
    bound = sum(math.prod(range(1, w, 2)) for w in range(0, SWEEP_WIDTH + 1, 2))
    assert len(table) <= bound
    assert len(table) == bound == 125
    assert set(table) == {m for w in range(0, SWEEP_WIDTH + 1, 2) for m in matchings(tuple(range(w)))}
    assert table[0] == () and len(diagram._IDS) == len(table)
    for i, m in enumerate(table):
        assert diagram._IDS[m] == i
        assert sorted(chain(*m)) == list(range(2 * len(m))) and 2 * len(m) <= SWEEP_WIDTH
    # a crossingless matching has one id, and Q and the bracket keep the row
    # of that matching under it, each the packed transition of its own engine
    transitions = [args for name, args in calls if name == "_transition"]
    keys = {_q: set(), jones._bracket: set()}
    for engine, width, m, glue in transitions:
        keys[engine].add(((width, glue), diagram._IDS[m]))
    # each row was packed once, and is read back from the cache below
    assert row.cache_info().misses == len(transitions) == sum(map(len, keys.values()))
    shared = 0
    for step, i in keys[_q] & keys[jones._bracket]:
        width, glue = step
        m = table[i]
        assert not _basis(2 * len(m), m)[0]  # crossingless
        for engine in keys:
            assert row(engine, step, i) == diagram._pack_row(_transition(engine, width, m, glue))
        shared += 1
    assert shared > 10 and row.cache_info().misses == len(transitions)


@pytest.mark.parametrize("engine", [_q, jones._bracket])
def test_a_second_sweep_packs_no_row_and_returns_matchings(engine, monkeypatch):
    d = close_braid([1, -2, 3, -2, 1, 3, -2], 4)
    steps = d.plan
    first = _sweep(steps, engine)
    misses = diagram._program.cache_info().misses
    calls = _counting_calls(monkeypatch)
    second = _sweep(steps, engine)
    assert calls == [] and diagram._program.cache_info().misses == misses
    assert second == first == _combining_sweep(steps, engine) and list(second) == [()]


def test_the_program_table_keeps_its_bound(monkeypatch):
    # the process keeps every row and the _PROGRAMS_MAX programs used last;
    # distinct closures compile more programs than a bound of 40: the cache
    # never holds more, and every sweep stays exact
    assert diagram._row.cache_parameters() == {"maxsize": None, "typed": False}
    assert diagram._program.cache_parameters() == {"maxsize": diagram._PROGRAMS_MAX, "typed": False}
    pieces = [(steps, engine, _combining_sweep(steps, engine)) for steps, engine in _planned_pieces(_random_closures(7, 16, 80))]
    cache = lru_cache(maxsize=40)(diagram._program.__wrapped__)
    monkeypatch.setattr(diagram, "_program", cache)
    for steps, engine, value in pieces:
        assert _sweep(steps, engine) == value, (steps, engine)
        assert cache.cache_info().currsize <= 40
    info = cache.cache_info()
    assert len(pieces) > 20 and info.currsize == 40 and info.misses > 200


def test_a_piece_swept_between_a_streams_closures_stays_cached(monkeypatch):
    # least recently used goes first: a piece swept again after each closure
    # of a stream that compiles far more than 40 programs is never compiled
    # again at a bound of 40, where the oldest going first would evict it
    compile = diagram._program.__wrapped__
    compiled = []

    def counted(engine, step, ids):
        compiled.append((engine, step, ids))
        return compile(engine, step, ids)

    _, cache = _fresh_caches(monkeypatch, 40, counted)
    hot = list(_planned_pieces([close_braid([1, -2, 1, -2, 2], 3)]))
    want = [_sweep(*piece) for piece in hot]
    assert 0 < len(set(compiled)) == len(compiled) <= 16
    stream = list(_planned_pieces(_random_closures(11, 40, 24)))
    for steps, engine in stream:
        _sweep(steps, engine)
        compiled.clear()
        assert [_sweep(*piece) for piece in hot] == want
        assert compiled == [] and cache.cache_info().currsize <= 40
    assert len(stream) > 40 and cache.cache_info().misses > 200


def _tangle_sum(t1, t2):
    """The tangle sum of 4-point tangles: NE and SE of t1 fused to NW and SW of
    t2 (positions NW 0, SW 1, SE 2, NE 3, counterclockwise)."""
    shift = max(chain(t1.boundary, *t1.crossings)) + 1
    c2 = [tuple(a + shift for a in t) for t in t2.crossings]
    b1, b2 = t1.boundary, [a + shift for a in t2.boundary]
    fusions = [(b1[3], b2[0]), (b1[2], b2[1])]
    loops = t1.free_loops + t2.free_loops
    return PDDiagram(*_relabel(list(t1.crossings) + c2, fusions, loops, (b1[0], b1[1], b2[2], b2[3])))


def _numerator(crossings, boundary):
    """The closure of a 4-point tangle that joins NW to NE and SW to SE."""
    return PDDiagram(*_relabel(list(crossings), [(boundary[0], boundary[3]), (boundary[1], boundary[2])], 0))


def test_four_point_tangle_relations():
    # the k = 2 relations of Q over the descending basis, "+" the vector sum
    # and "(+)" the tangle sum: [1] + [-1] = x([0] + [inf]), [1] (+) [-1] = [0],
    # [inf] (+) [+-1] = [inf] and [inf] (+) [inf] = (2x^-1 - 1)[inf]
    zero = PDDiagram([], 0, (1, 2, 2, 1))
    infinity = PDDiagram([], 0, (1, 1, 2, 2))
    plus = PDDiagram([(1, 2, 3, 4)], 0, (1, 2, 3, 4))
    minus = switch(plus, 0)
    x, one = IntLaurent.x(), IntLaurent.const(1)

    def q(t):
        return _q(t, {})

    assert _combine(((one, q(plus)), (one, q(minus)))) == _combine(((x, q(zero)), (x, q(infinity))))
    assert q(_tangle_sum(plus, minus)) == q(_tangle_sum(minus, plus)) == q(zero)
    for twist in (plus, minus):
        assert q(_tangle_sum(infinity, twist)) == q(_tangle_sum(twist, infinity)) == q(infinity)
    loop = P("2x^-1-1")
    assert q(_tangle_sum(infinity, infinity)) == _combine(((loop, q(infinity)),))

    # [n] = [1] (+) ... (+) [1] paired with the numerators of the basis tangles
    closures = {m: q_polynomial(_numerator(*_basis(4, m))) for m in matchings((0, 1, 2, 3))}
    twists = plus
    for n in range(1, 8):
        vector = q(twists)
        paired = sum((c * closures[m] for m, c in vector.items()), IntLaurent.zero())
        assert paired == q_polynomial(_numerator(twists.crossings, twists.boundary))
        assert paired == q_polynomial(close_braid([1] * n, 2))
        twists = _tangle_sum(twists, plus)


# Kidwell (Proc. AMS 100, 1987): deg Q <= n - b on any diagram with n crossings
# whose longest bridge has b, and deg Q = n - 1 on a reduced prime alternating
# one.  Neither bound comes from the engine, so they check the sweep, the
# planner and the end table at sizes no other test reaches.


def _q_test_diagrams():
    """The diagrams whose Q the tests of this module compute."""
    yield from (unlink(1), unlink(3), trefoil(), figure_eight(), hopf_link())
    yield close_braid([1, 1, 1, 2, -1, -3, 2, -3, -3], 4)  # 8_8
    yield close_braid([1, 1, 1, -2, 1, -2, -2, -2], 3)  # 8_9
    yield from (close_braid([1, 1, 1], 2), parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3);O(1)"))
    yield from map(generate_pretzel, ([1, 1, 1], [3, 3, -3], [5, 4, -3]))
    for d1 in (trefoil(), figure_eight(), hopf_link()):
        yield mirror(d1)
        for d2 in (trefoil(), figure_eight(), hopf_link()):
            yield connected_sum(d1, d2, 1, 1)
    for seed, count, letters in ((1, 25, 8), (42, 12, 7), (7, 10, 7), (3, 20, 8)):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_braid_diagram(rng, letters, 3)
    for k in (8, 13, 50):
        yield close_braid([1, -2] * k, 3)
    w = [2, -3, 4, -2, 3, -4]
    yield close_braid(w + [1, 1, 1] + [-x for x in reversed(w)], 5)
    yield from _sweep_cases()


def test_kidwell_bound_on_the_q_test_diagrams():
    cases = tight = 0
    for d in _q_test_diagrams():
        deg = q_polynomial(d, 64).degree()
        for diagram in (d, simplify(d)):
            n, b = len(diagram), longest_bridge(diagram)
            assert deg <= n - b, (diagram, deg, n, b)
            tight += deg == n - b
            cases += 1
    assert cases > 350 and tight > 200


@pytest.mark.parametrize("k", [50, 125, 250])
def test_kidwell_degree_of_reduced_alternating_closures(k):
    # the closure of (s1 s2^-1)^k is reduced, prime and alternating: b = 1
    d = close_braid([1, -2] * k, 3)
    assert simplify(d) is d and longest_bridge(d) == 1
    assert q_polynomial(d).degree() == len(d) - 1 == 2 * k - 1


def test_rows_and_programs_are_keyed_by_engine(monkeypatch):
    # Q and the bracket share steps and crossingless matching ids, yet
    # whichever engine asks first, neither receives the other's row or program
    steps = close_braid([1, -2, 3, -2, 1, 3, -2], 4).plan
    engines = (_q, jones._bracket)
    crossingless = [i for i, m in enumerate(diagram._MATCHINGS) if not _basis(2 * len(m), m)[0]]
    differ = 0
    for order in (engines, engines[::-1]):
        row, program = _fresh_caches(monkeypatch)
        for step in steps:
            width, glue = step
            for i in crossingless:
                if 2 * len(diagram._MATCHINGS[i]) == width:
                    rows = [row(engine, step, i) for engine in order]
                    assert rows == [diagram._pack_row(_transition(engine, width, diagram._MATCHINGS[i], glue)) for engine in order]
                    differ += rows[0] != rows[1]
        for engine in order:
            ids = (0,)
            for step, kept in zip(steps, diagram._step_programs(steps, engine)):
                assert kept == program.__wrapped__(engine, step, ids)
                ids = kept[1]
    assert differ > 20


@pytest.mark.parametrize("engine", [_q, jones._bracket])
def test_the_bound_pass_packs_no_row(engine, monkeypatch):
    # from empty caches the walk along the programs packs every row and
    # compiles every program; the bound pass and the value pass that follow
    # only run them
    steps = close_braid([1, -2] * 50, 3).plan
    row, program = _fresh_caches(monkeypatch)
    calls = _counting_calls(monkeypatch)
    programs = diagram._step_programs(steps, engine)
    misses = row.cache_info().misses, program.cache_info().misses
    assert [name for name, _ in calls].count("_pack_row") == misses[0] > 10
    assert misses[1] > 5
    calls.clear()
    (bound,) = diagram._bounds(programs).values()
    nbytes = nbytes_for(bound)
    low, state = diagram._packed_sweep(programs, nbytes)
    assert calls == [] and nbytes > 8
    assert (row.cache_info().misses, program.cache_info().misses) == misses
    assert {diagram._MATCHINGS[i]: unpack(v, nbytes, low) for i, v in state.items()} == _sweep(steps, engine)
