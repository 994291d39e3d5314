import hashlib
import json
import math
import random
import re
from itertools import chain
from pathlib import Path

import pytest

from qalt.diagram import (
    FALLBACK_MAX_CROSSINGS,
    SWEEP_WIDTH,
    PDDiagram,
    SmoothingKind,
    _basis,
    _connected_pieces,
    _faces,
    _find,
    _glued,
    _relabel,
    _splice,
    _strands,
    _sweep_steps,
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
from qalt.errors import CrossingLimitError, MalformedDiagramError, PDParseError
from qalt.jones import _det_and_breadth, determinant_goeritz, jones_polynomial, kauffman_bracket
from qalt.qpoly import q_polynomial

from conftest import matchings

TREFOIL_PD = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
TREFOIL_CODES = {trefoil().canonical_code(), mirror(trefoil()).canonical_code()}
# sha256 of the PD text of 400 seeded connected sums (`_summand`), taken when
# `connected_sum` found the ends to cut in the arc-keyed table
SUM_PINNED = "b8b9f96e9903ee3b2b6d03cf1b048f195a21a350fb742124e4ebef366e28ec51"
BENCH = Path(__file__).resolve().parent.parent / "qaltbench"
CORPUS = BENCH / "corpus"


def _ends_of(crossings, boundary=()):
    """arc -> the two (crossing index, slot) positions where it ends, in scan
    order; an end at boundary position p is (-1, p), after the crossing ends.
    The arc-keyed reference for the walks over the end table `partner`."""
    ends = {}
    for i, t in enumerate(crossings):
        for s, a in enumerate(t):
            ends.setdefault(a, []).append((i, s))
    for p, a in enumerate(boundary):
        ends.setdefault(a, []).append((-1, p))
    return ends


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert len(d) == 3
    assert num_components(d) == 1


def test_parse_free_loops():
    d = parse_pd("O(1)")
    assert len(d) == 0
    assert num_components(d) == 1
    assert num_components(parse_pd("O(3)")) == 3
    with pytest.raises(PDParseError, match="O-term needs one count >= 0"):
        parse_pd("O(-1)")


def test_diagram_constructor_rejects_bad_input():
    with pytest.raises(MalformedDiagramError, match="not a 4-tuple"):
        PDDiagram([(1, 2, 3)])
    with pytest.raises(MalformedDiagramError, match="negative free loop count"):
        PDDiagram([], -1)
    # int() would truncate 1.9 to 1 and accept the trefoil, 1.7 to one loop
    with pytest.raises(MalformedDiagramError, match="must be integers"):
        PDDiagram([(1.9, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    with pytest.raises(MalformedDiagramError, match="must be integers"):
        PDDiagram([], 1.7)
    with pytest.raises(MalformedDiagramError, match="must be integers"):
        PDDiagram([(1, 2, 2, 1)], 0, (1.0, 1))


def test_equal_diagrams_hash_alike_and_a_link_repr_is_its_pd_text():
    d, same = trefoil(), parse_pd(TREFOIL_PD)
    assert d is not same and d == same and hash(d) == hash(same)
    assert len({d, same, mirror(d)}) == 2
    assert d != TREFOIL_PD
    assert repr(d) == f"PDDiagram({TREFOIL_PD!r})"
    assert repr(parse_pd("O(2)")) == "PDDiagram('O(2)')"


def test_parse_rejects_bad_multiplicity():
    with pytest.raises(MalformedDiagramError):
        parse_pd("X(1,2,3,4)")


@pytest.mark.parametrize(
    "crossings, boundary, bad",
    [
        ([(1, 2, 3, 4), (1, 2, 3, 5)], (), [4, 5]),  # one end each
        ([(9, 1, 2, 3), (1, 2, 3, 4), (4, 5, 5, 6), (6, 7, 7, 8)], (), [8, 9]),  # end 0 alone
        ([(1, 1, 1, 2)], (), [1, 2]),  # three ends beside one: the labels are half the ends
        ([(1, 2, 1, 3), (2, 1, 3, 4), (4, 5, 6, 5)], (), [1, 6]),
        ([(1, 1, 1, 1)], (), [1]),  # four ends, paired twice over
        ([(1, 1, 2, 2), (1, 1, 3, 3)], (), [1]),
        ([(1, 1, 1, 1), (2, 3, 4, 4)], (), [1, 2, 3]),  # four ends beside two with one
        ([(1, 2, 3, 4)], (1, 2, 3, 4, 5), [5]),  # a boundary label with one end
        ([(1, 2, 3, 4)], (1, 1, 2, 3, 4, 6), [1, 6]),  # with three, beside one with one
        ([(1, 2, 2, 3)], (1, 3, 3), [3]),
    ],
)
def test_the_label_check_names_exactly_the_bad_labels(crossings, boundary, bad):
    with pytest.raises(MalformedDiagramError, match=re.escape(f"arc identifiers {bad} do not occur exactly twice")):
        PDDiagram(crossings, 0, boundary)


def test_parse_rejects_syntax():
    # stray tokens before, between or after the terms are not dropped
    stray = ["X(1,2,2,1)(7)", "(5)X(1,2,2,1)", "X(1,2,2,1)X", "XO(1)"]
    for bad in ["", "X(1,2,3)", "Y(1,2,3,4)", "X(1,2,3,4,5)", "X(a,b,c,d)"] + stray:
        with pytest.raises((PDParseError, MalformedDiagramError)):
            parse_pd(bad)


def test_render_round_trip():
    for d in [trefoil(), hopf_link(), parse_pd("O(2)"), figure_eight()]:
        d2 = parse_pd(render_pd(d))
        assert d2.canonical_code() == d.canonical_code()
        assert num_components(d2) == num_components(d)


def test_hopf_components():
    assert num_components(hopf_link()) == 2


def test_smooth_trefoil():
    d = trefoil()
    kinds = {SmoothingKind.A, SmoothingKind.B}
    for i in range(3):
        comps = sorted(num_components(smooth(d, i, k)) for k in kinds)
        assert comps == [1, 2]
        for k in kinds:
            assert len(smooth(d, i, k)) == 2
    with pytest.raises(MalformedDiagramError):
        smooth(d, 3, SmoothingKind.A)


def test_smoothing_component_change():
    # self-crossing: one smoothing splits a component, the other keeps the
    # count; crossing between two components: both smoothings merge them
    rng = random.Random(11)
    seen = set()
    for _ in range(30):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 7))]
        d = close_braid(word, 3)
        base = num_components(d)
        for i in range(len(d)):
            deltas = sorted(
                num_components(smooth(d, i, k)) - base
                for k in (SmoothingKind.A, SmoothingKind.B)
            )
            assert deltas in ([-1, -1], [0, 1])
            seen.add(tuple(deltas))
    assert seen == {(-1, -1), (0, 1)}


def test_smoothing_hopf_both_merge():
    d = hopf_link()
    for i in range(2):
        for k in (SmoothingKind.A, SmoothingKind.B):
            assert num_components(smooth(d, i, k)) == 1


def test_switch_involution():
    d = trefoil()
    for i in range(3):
        assert switch(switch(d, i), i) == d
        assert num_components(switch(d, i)) == num_components(d)
    for i in (-1, 3):
        with pytest.raises(MalformedDiagramError, match="out of range"):
            switch(d, i)


def test_switch_unknots_trefoil():
    for i in range(3):
        assert simplify(switch(trefoil(), i)) == unknot()


def test_simplify_kink():
    assert simplify(parse_pd("X(1,2,2,1)")) == unknot()
    # kink attached to a trefoil: add a curl on arc 1
    kinked = parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
    assert simplify(kinked) == kinked  # standard trefoil has no R1/R2


def test_simplify_r2():
    # two-crossing unknot-pair: strand 1 passes over strand 2 twice
    d = close_braid([1, 1], 2)  # Hopf
    assert simplify(d) == d  # clasp is not R2
    d2 = close_braid([1, -1], 2)  # identity braid: two split circles
    assert simplify(d2) == unlink(2)
    # genuine R2 inside one component: sigma_1 sigma_2^-1 sigma_2 sigma_1
    d3 = close_braid([1, -2, 2, 1], 2 + 1)
    assert simplify(d3) == simplify(close_braid([1, 1], 3))


def test_simplify_preserves_components():
    rng = random.Random(5)
    for _ in range(40):
        word = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 8))]
        d = close_braid(word, 4)
        assert num_components(simplify(d)) == num_components(d)


# The reference for `simplify`: find the first kink, else the first clasp, by a
# scan from crossing 0 over the tuples as they stand, relabel the arcs, and
# repeat; build one diagram at the end, which normalizes the tuples once.  It
# costs O(m n) for m moves on n crossings; the worklist reducer must return
# its output byte for byte.  The second reference normalizes the tuples after
# every move, which may turn a crossing and so change the slot order of the
# next scans; on the inputs below it reaches the same crossing and free-loop
# counts, though not always the same diagram.


def _find_r1(crossings):
    for i, t in enumerate(crossings):
        for s in range(4):
            if t[s] == t[(s + 1) % 4]:
                return (i,), [(t[(s + 2) % 4], t[(s + 3) % 4])]
    return None


def _find_r2(crossings):
    ends = _ends_of(crossings)
    for arc, arc_ends in ends.items():
        if len(arc_ends) < 2:
            continue  # the arc runs to a tangle's boundary
        (c1, s1), (c2, s2) = arc_ends
        if c1 == c2 or s1 % 2 == 0 or s2 % 2 == 0:
            continue
        for arc2 in set(crossings[c1]) & set(crossings[c2]):
            if arc2 == arc:
                continue
            (d1, t1), (d2, t2) = ends[arc2]
            if {d1, d2} == {c1, c2} and t1 % 2 == 0 and t2 % 2 == 0:
                fusions = []
                for c in (c1, c2):
                    t = crossings[c]
                    over_pair = [t[1], t[3]]
                    under_pair = [t[0], t[2]]
                    over_pair.remove(arc)
                    under_pair.remove(arc2)
                    fusions.append((arc, over_pair[0]))
                    fusions.append((arc2, under_pair[0]))
                return (c1, c2), fusions
    return None


def _rescanning_simplify(d):
    crossings, loops, boundary = d.crossings, d.free_loops, d.boundary
    while move := _find_r1(crossings) or _find_r2(crossings):
        removed, fusions = move
        kept = [t for j, t in enumerate(crossings) if j not in removed]
        crossings, loops, boundary = _relabel(kept, fusions, loops, boundary)
    return d if crossings is d.crossings else PDDiagram(crossings, loops, boundary)


def _normalizing_simplify(d):
    out = d
    while move := _find_r1(out.crossings) or _find_r2(out.crossings):
        removed, fusions = move
        kept = [t for j, t in enumerate(out.crossings) if j not in removed]
        out = PDDiagram(*_relabel(kept, fusions, out.free_loops, out.boundary))  # normalizes
    return out


def _reducer_inputs():
    """Seeded 2-6-strand closures of 0-60 letters, a third of them with one
    crossing smoothed; every glued basis tangle of width 6 or less; and a
    diagram with a meridian loop, on which normalizing the tuples after every
    move reaches a different diagram with the same 6 crossings."""
    rng = random.Random(20140606)
    for _ in range(2000):
        strands = rng.randint(2, 6)
        gens = [g for i in range(1, strands) for g in (i, -i)]
        d = close_braid([rng.choice(gens) for _ in range(rng.randint(0, 60))], strands)
        if d.crossings and rng.random() < 1 / 3:
            d = smooth(d, rng.randrange(len(d)), rng.choice((SmoothingKind.A, SmoothingKind.B)))
        yield d
    for width in (2, 4, 6):
        glues = [(i, r, s) for i in range(width) for r in range(1, min(width, 4) + 1) for s in range(4)]
        glues += [(i, 2, None) for i in range(width)]
        for m in matchings(tuple(range(width))):
            for glue in glues:
                yield _glued(width, m, glue)
    yield parse_pd(
        "X(18,9,15,17);X(17,10,6,8);X(14,2,2,7);X(11,12,1,11);X(10,3,8,4);"
        "X(14,13,4,16);X(12,1,7,5);X(9,18,3,15);X(16,6,13,5)"
    )


def test_simplify_matches_the_rescanning_reducer():
    for d in _reducer_inputs():
        want = _rescanning_simplify(d)
        got = simplify(d)
        assert got.key() == want.key(), d.key()
        assert (got is d) == (want is d)
        assert d.ends == _ends_of(d.crossings, d.boundary)  # its table is shared, not changed


def test_simplify_keeps_the_counts_of_the_per_move_normalizing_reducer():
    for d in _reducer_inputs():
        want = _normalizing_simplify(d)
        got = simplify(d)
        assert (len(got), got.free_loops) == (len(want), want.free_loops), d.key()


def test_simplify_keeps_the_benchmark_goeritz_records():
    # the benchmark reduces each goeritz job's diagram and checks the crossing
    # count and det against its record; a move order that leaves more
    # crossings, or a wrong diagram, would read there as incorrect
    records = json.loads((BENCH / "expected" / "big_forms.json").read_text())["records"]
    jobs = [j for j in json.loads((CORPUS / "big_forms.json").read_text())["jobs"] if j["kind"] == "goeritz"]
    assert len(jobs) == 9
    for job in jobs:
        reduced = simplify(parse_pd(job["diagram"]["pd"]))
        assert {"crossings": len(reduced), "det": determinant_goeritz(reduced)} == records[job["id"]], job["id"]


def _pairing(d):
    """The end table read off the arc-keyed `ends`, in `partner`'s numbering."""
    partner = [None] * (4 * len(d) + len(d.boundary))
    for x, y in _ends_of(d.crossings, d.boundary).values():
        partner[_end(d, x)], partner[_end(d, y)] = _end(d, y), _end(d, x)
    return partner


def test_the_end_table_pairs_every_end_with_another():
    for d in _reducer_inputs():
        p = d.partner
        assert all(p[e] != e and p[p[e]] == e for e in range(len(p))), d.key()
        assert p == _pairing(d)


def test_simplify_builds_no_arc_table_and_leaves_the_end_table_alone():
    outputs = []
    moved = 0
    for d in _reducer_inputs():
        before = _pairing(d)
        outputs.append(simplify(d))
        assert d.partner == before, d.key()  # the moves join ends in a copy
        assert "ends" not in vars(d) and "ends" not in vars(outputs[-1])
        moved += outputs[-1] is not d
    assert moved > 2500
    # simplify marks what it returns reduced, `d` itself or a new diagram;
    # the next test shows that no second scan runs
    assert all(simplify(out) is out for out in outputs)


def test_simplify_reads_no_end_table_of_a_diagram_it_returned():
    # the first scan tests kinks inline and calls no `_kinked`, so only an
    # end table that cannot be read shows a second scan
    for d in _reducer_inputs():
        out = simplify(d)
        out.partner = None
        assert simplify(out) is out, d.key()


# The references for the walks over the end table `partner`: the union-find
# piece split, the face walk and the strand walk over the arc-keyed `ends`,
# and the planner that tests every slot of every candidate and scans the whole
# frontier for caps after every step.  The walks must return their outputs
# exactly, and `_sweep_steps` the same steps.


def _union_find_pieces(d):
    parent = {}
    for (c1, _), (c2, _) in _ends_of(d.crossings, d.boundary).values():
        parent[_find(parent, c2)] = _find(parent, c1)
    pieces = {}
    for c in range(len(d.crossings)):
        pieces.setdefault(_find(parent, c), []).append(c)
    return list(pieces.values())


def _arc_faces(d):
    """(number of faces, {(crossing, k): face}) of a link diagram."""
    ends = _ends_of(d.crossings)
    face_of = {}
    nfaces = 0
    for c0 in range(len(d.crossings)):
        for s0 in range(4):
            if (c0, s0) in face_of:
                continue
            c, s = c0, s0
            while (c, s) not in face_of:
                face_of[(c, s)] = nfaces
                e1, e2 = ends[d.crossings[c][s]]
                c2, s2 = e2 if e1 == (c, s) else e1
                c, s = c2, (s2 + 1) % 4
            nfaces += 1
    if nfaces != len(d.crossings) + 2 * len(_union_find_pieces(d)):
        raise MalformedDiagramError("PD code is not planar: no sphere diagram has it")
    return nfaces, face_of


def _arc_next(d, ends, c, s):
    e1, e2 = ends[d.crossings[c][(s + 2) % 4]]
    return e2 if e1 == (c, (s + 2) % 4) else e1


def _arc_strands(d):
    ends = _ends_of(d.crossings, d.boundary)
    walked = [[False, False] for _ in d.crossings]
    strands = []
    upper = set()
    for p, a in enumerate(d.boundary):
        if p in upper:
            continue
        e1, e2 = ends[a]
        strand = [(-1, p)]
        c, s = e2 if e1 == (-1, p) else e1
        while c >= 0:
            walked[c][s % 2] = True
            strand.append((c, s))
            c, s = _arc_next(d, ends, c, s)
        strand.append((c, s))
        upper.add(s)
        strands.append(strand)
    for c0 in range(len(d.crossings)):
        for s0 in (1, 0):
            strand = []
            c, s = c0, s0
            while not walked[c][s % 2]:
                walked[c][s % 2] = True
                strand.append((c, s))
                c, s = _arc_next(d, ends, c, s)
            if strand:
                strands.append(strand)
    return strands


def _scanning_run(frontier, t):
    w = len(frontier)
    if not w:
        return 0, 0, 0
    on = [a in frontier for a in t]
    r = sum(on)
    for s in range(4):
        if on[s] and (r == 4 or not on[s - 1]) and all(on[(s + j) % 4] for j in range(r)):
            i = frontier.index(t[(s + r - 1) % 4])
            if all(frontier[(i + k) % w] == t[(s + r - 1 - k) % 4] for k in range(r)):
                return i, r, s
    return None


def _scanning_steps(d):
    frontier = []
    left = list(range(len(d.crossings)))
    steps = []
    while left:
        for x in left:
            run = _scanning_run(frontier, d.crossings[x])
            if run is not None:
                break
        else:
            return None
        i, r, s = run
        w = len(frontier)
        if w + 4 - 2 * r > SWEEP_WIDTH:
            return None
        steps.append((w, (i, r, s % 2)))
        t = d.crossings[x]
        frontier = _splice(frontier, i, r, [t[(s + j) % 4] for j in range(r, 4)])
        left.remove(x)
        while True:
            w = len(frontier)
            i = next((i for i in range(w) if frontier[i] == frontier[(i + 1) % w]), None)
            if i is None:
                break
            steps.append((w, (i, 2, None)))
            frontier = _splice(frontier, i, 2, [])
    return steps


def _recipe(r):
    if "braid" in r:
        return close_braid(r["braid"], r["strands"])
    if "pretzel" in r:
        return generate_pretzel(r["pretzel"])
    if "pd" in r:
        return parse_pd(r["pd"])
    first, second = r["sum"]
    return connected_sum(_recipe(first), _recipe(second), *r["arcs"])


def _walk_inputs():
    """Every diagram of the benchmark corpora and seeded closures of 3-8
    strands and 10-80 letters, each also reduced; kinked and split diagrams."""
    for workload in ("q_alt3", "qa_scan", "big_forms"):
        for job in json.loads((CORPUS / f"{workload}.json").read_text())["jobs"]:
            if "diagram" in job:
                d = _recipe(job["diagram"])
                yield d
                yield simplify(d)
    rng = random.Random(20140607)
    for strands in range(3, 9):
        gens = [g for i in range(1, strands) for g in (i, -i)]
        for _ in range(30):
            d = close_braid([rng.choice(gens) for _ in range(rng.randint(10, 80))], strands)
            yield d
            yield simplify(d)
    kinked = ["X(1,2,2,1)", "X(1,1,2,2)", "X(1,4,2,5);X(3,6,4,1);X(5,2,6,7);X(7,8,8,3)"]
    yield from map(parse_pd, kinked)
    yield close_braid([1, 1, -2, 3, 3, 3, -2, 1], 5)  # s4 never occurs: split
    for _ in range(20):
        d = close_braid([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 12))], 3)
        other = close_braid([rng.choice((1, 2, -1)) for _ in range(rng.randint(1, 6))], 3)
        shift = max(chain(*d.crossings), default=0)
        both = PDDiagram(d.crossings + tuple(tuple(a + shift for a in t) for t in other.crossings), 1)
        yield both
        if both.crossings:
            yield smooth(both, rng.randrange(len(both)), rng.choice((SmoothingKind.A, SmoothingKind.B)))


def _end(d, x):
    """The end (crossing, slot) or (-1, boundary position) in `partner`'s numbering."""
    c, s = x
    return 4 * c + s if c >= 0 else 4 * len(d) + s


def test_end_table_walks_match_the_arc_walks():
    planned = unplanned = capped = split = wrapped = 0
    for d in _walk_inputs():
        assert len(d.partner) == 4 * len(d) + len(d.boundary)
        for x, y in _ends_of(d.crossings).values():
            assert d.partner[_end(d, x)] == _end(d, y) and d.partner[_end(d, y)] == _end(d, x)
        pieces = _union_find_pieces(d)
        assert d.pieces == pieces
        split += len(pieces) > 1
        nfaces, face_of = _arc_faces(d)
        assert d.faces[0] == nfaces
        assert d.faces[1] == [face_of[(c, k)] for c in range(len(d)) for k in range(4)]
        assert _strands(d) == _arc_strands(d)
        for piece in pieces:
            p = PDDiagram([d.crossings[i] for i in piece])
            steps = _sweep_steps(p)
            assert steps == _scanning_steps(p), p
            planned += steps is not None
            unplanned += steps is None
            capped += steps is not None and any(s is None for _, (_, _, s) in steps)
            # a crossing's run that passes the frontier's last position, which
            # the planner splices by a second edit of the list
            wrapped += steps is not None and any(s is not None and i + r > w for w, (i, r, s) in steps)
    assert planned > 700 and unplanned > 200 and capped > 50 and split > 50 and wrapped > 100


def test_the_benchmark_pieces_plan_as_the_scanning_planner_does():
    # the plans Q and the bracket read on the benchmark's traffic: every piece
    # of every reduced job diagram of q_alt3 and qa_scan, as `parts` keeps it
    for workload, pieces in (("q_alt3", 15), ("qa_scan", 229)):
        jobs = [j for j in json.loads((CORPUS / f"{workload}.json").read_text())["jobs"] if "diagram" in j]
        parts = [p for job in jobs for p in simplify(_recipe(job["diagram"])).parts]
        assert len(parts) == pieces
        for p in parts:
            assert p.plan is not None and p.plan == _scanning_steps(p), p


def _reshuffled(d, rng):
    """`d` with its arc labels permuted, a random half of its tuples rotated
    by two and its crossings in a random order: the same link."""
    labels = sorted(set(chain(*d.crossings)))
    image = dict(zip(labels, rng.sample(labels, len(labels))))
    crossings = [tuple(image[a] for a in t) for t in d.crossings]
    for i in rng.sample(range(len(crossings)), len(crossings) // 2):
        t = crossings[i]
        crossings[i] = t[2:] + t[:2]
    rng.shuffle(crossings)
    return PDDiagram(crossings, d.free_loops)


def test_a_reshuffled_pd_code_gives_the_same_invariants():
    # the sweep plans in PD order, so whether Q runs depends on the crossing
    # order; so does the bracket's cost, whose smoothings of a piece with no
    # plan leave pieces in the same order.  Where both run within the default
    # bound they give the unshuffled diagram's Q, det and breadth, and
    # Goeritz's det, which plans no sweep, holds on every link
    jobs = json.loads((CORPUS / "qa_scan.json").read_text())["jobs"]
    links = [_recipe(job["diagram"]) for job in jobs]
    rng = random.Random(4)
    for _ in range(100):
        strands = rng.choice((3, 4))
        gens = [g for i in range(1, strands) for g in (i, -i)]
        links.append(close_braid([rng.choice(gens) for _ in range(rng.randint(20, 80))], strands))
    rng = random.Random(3)
    refused = 0
    for d in map(simplify, links):
        shuffled = _reshuffled(d, rng)
        assert determinant_goeritz(shuffled) == determinant_goeritz(d), d
        try:
            q = q_polynomial(shuffled)
            bracket = kauffman_bracket(shuffled, FALLBACK_MAX_CROSSINGS)
        except CrossingLimitError:
            refused += 1
            continue
        assert q == q_polynomial(d, math.inf), d
        assert _det_and_breadth(bracket) == _det_and_breadth(kauffman_bracket(d)), d
    # a finding, not a bound: plans that do not depend on the crossing order
    # would lower it, and CHANGES.md records each change with its cause
    assert refused == 81


def test_glued_tangles_walk_like_the_arc_walks():
    # every basis tangle glued to a crossing or a cap; boundary-to-boundary
    # arcs run from one boundary end of the table to another
    tangles = through = 0
    for width in range(0, SWEEP_WIDTH + 1, 2):
        glues = [(i, r, s) for i in range(width) for r in range(1, min(width, 4) + 1) for s in (0, 1)]
        glues += [(i, 2, None) for i in range(width)]
        for m in matchings(tuple(range(width))):
            for glue in glues:
                t = _glued(width, m, glue)
                assert t.pieces == _union_find_pieces(t), (m, glue)
                strands = _strands(t)
                assert strands == _arc_strands(t), (m, glue)
                for x, y in _ends_of(t.crossings, t.boundary).values():
                    assert t.partner[_end(t, x)] == _end(t, y) and t.partner[_end(t, y)] == _end(t, x)
                tangles += 1
                through += any(len(strand) == 2 for strand in strands[: len(t.boundary) // 2])
    # widths 2, 4, 6 and 8: 1, 3, 15 and 105 matchings, 10, 36, 54 and 72 glues
    assert tangles == 10 + 3 * 36 + 15 * 54 + 105 * 72 and through > 1000
    with pytest.raises(MalformedDiagramError, match="a tangle has no face walk"):
        _glued(4, ((0, 1), (2, 3)), (0, 2, None)).faces


def test_non_planar_codes_raise_as_the_arc_face_walk_does():
    d = parse_pd("X(1,1,2,3);X(2,4,3,4)")
    beside = PDDiagram(d.crossings + tuple(tuple(a + 10 for a in t) for t in trefoil().crossings))
    for code in (d, beside):
        with pytest.raises(MalformedDiagramError) as old:
            _arc_faces(code)
        with pytest.raises(MalformedDiagramError) as new:
            _faces(code)
        assert str(new.value) == str(old.value)
        assert code.pieces == _union_find_pieces(code)


def _tables(d):
    return d.ends, d.pieces, d.parts, d.faces, d.plan


def _fresh_tables(d):
    pieces = _connected_pieces(d)
    one = len(pieces) == 1 and not d.free_loops
    parts = [d] if one else [PDDiagram([d.crossings[i] for i in piece]) for piece in pieces]
    return _ends_of(d.crossings), pieces, parts, _faces(d), _sweep_steps(d)


def _kept(d, tables):
    """Whether a second access gives each table itself; `parts` of a diagram
    that is one piece is a new `[d]`, as `d` keeps no cycle to itself."""
    again = _tables(d)
    if again[2] == [d]:
        assert again[2][0] is d and again[2] is not tables[2]
        again, tables = again[:2] + again[3:], tables[:2] + tables[3:]
    return all(a is b for a, b in zip(again, tables))


def test_moves_build_diagrams_with_their_own_tables():
    d = close_braid([1, 1, 1, 2], 3)  # a trefoil with a kink
    tables = _tables(d)
    assert tables == _fresh_tables(d) and tables[2] == [d]
    assert _kept(d, tables)  # computed once, then kept
    outputs = (switch(d, 0), mirror(d), smooth(d, 3, SmoothingKind.A), simplify(d))
    for out in outputs:
        mine = _tables(out)
        assert mine == _fresh_tables(out)
        assert _kept(out, mine)
        assert all(a is not b for a, b in zip(mine, tables)), out
    # the smoothing splits off a free loop: its one part is kept on it
    assert len(outputs[2].parts) == 1 and outputs[2].free_loops == 1
    # a reduced diagram is its own simplification, tables and all
    reduced = outputs[-1]
    assert simplify(reduced) is reduced
    assert _kept(reduced, _tables(simplify(reduced)))


def test_mirror_involution():
    for d in [trefoil(), hopf_link(), figure_eight()]:
        assert mirror(mirror(d)) == d
        assert num_components(mirror(d)) == num_components(d)


def test_a_tangle_keeps_its_boundary():
    # the basis tangle of the matching (0, 2), (1, 3): one crossing
    crossings, boundary = _basis(4, ((0, 2), (1, 3)))
    tangle = PDDiagram(crossings, 0, boundary)
    assert tangle.boundary == (1, 3, 2, 4)
    assert repr(tangle) == "PDDiagram([(3, 2, 4, 1)], 0, (1, 3, 2, 4))"
    assert mirror(tangle) == PDDiagram([(1, 3, 2, 4)], 0, tangle.boundary)
    assert mirror(mirror(tangle)) == tangle
    # PD text has no boundary, so a tangle has none rather than a wrong one
    with pytest.raises(MalformedDiagramError, match="a tangle has no PD text"):
        render_pd(tangle)
    # the code walks strands through crossings, and a boundary end is none
    for t in (tangle, PDDiagram([(1, 1, 2, 3)], 0, (2, 3))):
        with pytest.raises(MalformedDiagramError, match="a tangle has no canonical code"):
            t.canonical_code()


def test_connected_sum_components():
    s = connected_sum(trefoil(), hopf_link(), 1, 1)
    assert num_components(s) == 1 + 2 - 1
    assert len(s) == 5


def test_connected_sum_with_unknot():
    kink = parse_pd("X(1,2,2,1)")
    s = connected_sum(kink, kink, 1, 1)
    assert simplify(s) == unknot()
    assert connected_sum(trefoil(), unknot(), 1, 0) == trefoil()
    assert connected_sum(unknot(), trefoil(), 0, 1) == trefoil()


def test_connected_sum_takes_any_integer_labels():
    # parse_pd accepts any integer label, so the second operand's shift must
    # clear its lowest label, not only zero
    negative = parse_pd("X(-1,-4,-2,-5);X(-3,-6,-4,-1);X(-5,-2,-6,-3)")
    zero_based = parse_pd("X(0,3,1,4);X(2,5,3,0);X(4,1,5,2)")
    want = connected_sum(trefoil(), trefoil(), 1, 1)
    for first in (trefoil(), zero_based):
        s = connected_sum(first, negative, 1, -1)
        assert len(s) == 6
        assert num_components(s) == 1
        assert q_polynomial(s) == q_polynomial(want)
        assert jones_polynomial(s) == jones_polynomial(want)


def _summand(rng):
    """A seeded 2-5-strand closure or pretzel with its labels scaled and
    shifted, some negative, or a one- or two-component unlink."""
    r = rng.random()
    if r < 0.1:
        return unlink(rng.randint(1, 2))
    if r < 0.3:
        d = generate_pretzel([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(2, 4))])
    else:
        strands = rng.randint(2, 5)
        gens = [g for i in range(1, strands) for g in (i, -i)]
        d = close_braid([rng.choice(gens) for _ in range(rng.randint(1, 12))], strands)
    k, off = rng.randint(1, 3), rng.randint(-20, 20)
    return PDDiagram([tuple(k * a + off for a in t) for t in d.crossings], d.free_loops)


def test_connected_sums_of_seeded_pairs_are_pinned():
    rng = random.Random(20140608)
    h = hashlib.sha256()
    for _ in range(400):
        d1, d2 = _summand(rng), _summand(rng)
        arcs = [rng.choice(sorted(set(chain(*d.crossings)))) if d.crossings else 0 for d in (d1, d2)]
        h.update(render_pd(connected_sum(d1, d2, *arcs)).encode() + b"\n")
    assert h.hexdigest() == SUM_PINNED


def test_connected_sum_with_the_empty_diagram_raises():
    empty = PDDiagram((), 0)
    for d1, d2 in ((empty, unknot()), (unknot(), empty), (empty, trefoil())):
        with pytest.raises(MalformedDiagramError):
            connected_sum(d1, d2, 1, 1)


def test_connected_sum_checks_every_arc_and_rejects_tangles():
    # an operand without crossings must not let a missing arc of the other through
    cases = [
        (trefoil(), unknot(), 999, 0, "first"),
        (unknot(), trefoil(), 5, 999, "second"),
        (trefoil(), trefoil(), 999, 1, "first"),
        (trefoil(), trefoil(), 1, 999, "second"),
    ]
    for d1, d2, arc1, arc2, which in cases:
        with pytest.raises(MalformedDiagramError, match=f"arc 999 not in {which} diagram"):
            connected_sum(d1, d2, arc1, arc2)
    crossings, boundary = _basis(4, ((0, 2), (1, 3)))
    tangle = PDDiagram(crossings, 0, boundary)
    for d1, d2 in ((tangle, trefoil()), (trefoil(), tangle), (unknot(), tangle)):
        with pytest.raises(MalformedDiagramError, match="cannot sum a tangle"):
            connected_sum(d1, d2, 1, 1)


def test_close_braid_empty():
    assert close_braid([], 3) == unlink(3)


def test_close_braid_unknot():
    d = close_braid([1, 2], 3)
    assert num_components(d) == 1
    assert simplify(d) == unknot()


def test_close_braid_trefoil():
    d = close_braid([1, 1, 1], 2)
    assert len(d) == 3
    assert num_components(d) == 1
    # the same diagram as the standard trefoil PD or its mirror, up to labels
    assert d.canonical_code() in TREFOIL_CODES


def test_close_braid_validation():
    with pytest.raises(MalformedDiagramError):
        close_braid([2], 2)
    with pytest.raises(MalformedDiagramError):
        close_braid([0], 2)
    # a plain letter list carries no strand count
    with pytest.raises(MalformedDiagramError, match="strand count required"):
        close_braid([1, 2])
    with pytest.raises(MalformedDiagramError, match="at least one strand"):
        close_braid([], 0)
    # a float letter used to raise a bare TypeError, a float strand count to truncate
    with pytest.raises(MalformedDiagramError, match="must be integers"):
        close_braid([1.5, 1, 1], 2)
    with pytest.raises(MalformedDiagramError, match="must be integers"):
        close_braid([1, 1, 1], 2.9)


def test_pretzel_counts():
    assert len(generate_pretzel([1, 1, 1])) == 3
    assert num_components(generate_pretzel([1, 1, 1])) == 1
    for n in (2, 3, 4):
        assert len(generate_pretzel([n, n, -n])) == 3 * n
    assert num_components(generate_pretzel([3, 3, -3])) == 1
    assert num_components(generate_pretzel([2, 2, -2])) == 3
    with pytest.raises(MalformedDiagramError):
        generate_pretzel([])
    with pytest.raises(MalformedDiagramError):
        generate_pretzel([2, 0, 2])
    with pytest.raises(MalformedDiagramError, match="at least 2 twist regions"):
        generate_pretzel([3])


def test_pretzel_trefoil_code():
    assert generate_pretzel([1, 1, 1]).canonical_code() in TREFOIL_CODES


def test_canonical_code_relabel_invariance():
    d1 = parse_pd(TREFOIL_PD)
    # relabel arcs 1..6 -> 7..12 shuffled consistently and reorder crossings
    d2 = parse_pd("X(15,12,16,13);X(11,14,12,15);X(13,16,14,11)")
    assert d1.canonical_code() == d2.canonical_code()


def test_canonical_code_sees_over_under():
    d = trefoil()
    assert d.canonical_code() != switch(d, 0).canonical_code()


def test_canonical_code_records_component_restarts():
    # a 3- and a 2-component diagram whose walks differ only in where a
    # component closes and the walk restarts
    d3 = parse_pd("X(1,2,3,4);X(5,6,7,3);X(6,5,8,7);X(1,4,8,2)")
    d2 = parse_pd("X(1,2,3,4);X(2,5,6,3);X(5,7,8,6);X(1,4,8,7)")
    assert (num_components(d3), num_components(d2)) == (3, 2)
    assert d3.canonical_code() != d2.canonical_code()
