"""Four digests pin the rendered outputs of the polynomial-time and skein
paths, of everything that walks a diagram's strands and faces, of the
pretzel diagrams' PD text, and of `simplify` on long braid closures.

Each digest is sha256 over the rendered text of every result, never
``hash()``, so it does not depend on the interpreter's hash seed.  A change
that is meant to keep every output byte-identical must leave all four equal.
"""

import hashlib
import itertools
import random

from qalt.braid3 import BraidWord, birman_jones
from qalt.diagram import (
    PDDiagram,
    SmoothingKind,
    close_braid,
    generate_pretzel,
    num_components,
    render_pd,
    simplify,
    smooth,
)
from qalt.intmat import int_det
from qalt.jones import determinant_goeritz, jones_polynomial, kauffman_bracket, orient
from qalt.kanenobu import kanenobu_q
from qalt.qpoly import q_polynomial

PINNED = "c5ef25d225cc6d9324a527790c4d7439e8e67706245887fb3412de304cab1990"
WALK_PINNED = "b0abd01bc5f760f494684b1287344b9ad19d75f8f44af2be0b1fafb00673ea51"
PRETZEL_PINNED = "49176c5e27defa68a5a84ea501bf2b14e02b0c616ccd94facb34557b03252df2"
BIG_PINNED = "d36b9d3943be282d58ba5da9672dc513ef8f68d5fff0f96c05275721e256934c"


def _word(rng: random.Random, strands: int, lo: int, hi: int) -> list[int]:
    gens = [g for i in range(1, strands) for g in (i, -i)]
    return [rng.choice(gens) for _ in range(rng.randint(lo, hi))]


def _lines():
    rng = random.Random(20140603)
    for _ in range(150):
        strands = rng.randint(2, 4)
        d = close_braid(_word(rng, strands, 1, 10), strands)
        yield render_pd(simplify(d))
        yield q_polynomial(d).render()
        yield kauffman_bracket(d).render()
        yield str(determinant_goeritz(d))
    for _ in range(40):
        letters = _word(rng, 3, 10, 120)
        d = close_braid(letters, 3)
        yield render_pd(simplify(d))
        yield str(determinant_goeritz(d))
        yield birman_jones(BraidWord(3, tuple(letters))).render_t()
    for p in range(-8, 9):
        for q in range(-8, 9):
            yield kanenobu_q(p, q).render()
    for _ in range(500):
        n = rng.randint(0, 8)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        m = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        yield str(int_det([dict(enumerate(row)) for row in m]))


def _walk_diagrams():
    """Seeded 2-5-strand closures: knots, links, split diagrams (a generator
    that never occurs, or a disjoint union) and free loops, a third of them
    with one crossing smoothed."""
    rng = random.Random(20140604)
    for _ in range(300):
        strands = rng.randint(2, 5)
        d = close_braid(_word(rng, strands, 1, 12), strands)
        if rng.random() < 0.2:
            other = close_braid(_word(rng, 2, 1, 4), 2)
            shift = max(itertools.chain(*d.crossings), default=0)
            d = PDDiagram(
                d.crossings + tuple(tuple(a + shift for a in t) for t in other.crossings),
                d.free_loops + other.free_loops,
            )
        if d.crossings and rng.random() < 0.35:
            kind = rng.choice((SmoothingKind.A, SmoothingKind.B))
            d = smooth(d, rng.randrange(len(d)), kind)
        yield d


def _walk_lines():
    for d in _walk_diagrams():
        # `orient` rejects a flip past the last strand, where it reversed nothing
        strands = range(num_components(d) - d.free_loops)
        for flips in (frozenset(), frozenset({0, 2}).intersection(strands)):
            od = orient(d, flips)
            yield f"{od.entries} {od.writhe}"
        yield str(num_components(d))
        yield repr(d.canonical_code())
        yield str(determinant_goeritz(d))
        if len(d) <= 12:
            yield repr(jones_polynomial(d))


def _pretzel_lines():
    """PD text of every pretzel with 2, 3 or 4 entries in [-4, -1] u [1, 4]:
    4672 diagrams."""
    entries = [p for p in range(-4, 5) if p]
    for k in (2, 3, 4):
        for e in itertools.product(entries, repeat=k):
            yield render_pd(generate_pretzel(e))


def _big_lines():
    """`simplify` and the Goeritz det of its output on 12 seeded 3- and
    4-strand closures of 200-2000 letters, where hundreds of moves interact."""
    rng = random.Random(20140605)
    for letters in (200, 250, 300, 350, 400, 450, 500, 600, 700, 800, 1000, 2000):
        strands = rng.randint(3, 4)
        d = close_braid(_word(rng, strands, letters, letters), strands)
        reduced = simplify(d)
        yield f"{len(d)} -> {len(reduced)}"
        yield render_pd(reduced)
        yield str(determinant_goeritz(reduced))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def outputs_digest() -> str:
    return _digest(_lines())


def walk_digest() -> str:
    return _digest(_walk_lines())


def test_outputs_are_pinned():
    assert outputs_digest() == PINNED


def test_walk_outputs_are_pinned():
    assert walk_digest() == WALK_PINNED


def test_pretzel_outputs_are_pinned():
    assert _digest(_pretzel_lines()) == PRETZEL_PINNED


def test_big_simplify_outputs_are_pinned():
    assert _digest(_big_lines()) == BIG_PINNED
