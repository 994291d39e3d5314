"""One digest pins the rendered outputs of the polynomial-time and skein paths.

The digest is sha256 over the rendered text of every result, never
``hash()``, so it does not depend on the interpreter's hash seed.  A change
that is meant to keep every output byte-identical must leave it equal.
"""

import hashlib
import random

from qalt.braid3 import BraidWord, birman_jones
from qalt.diagram import close_braid, render_pd, simplify
from qalt.intmat import int_det
from qalt.jones import determinant_goeritz, kauffman_bracket
from qalt.kanenobu import kanenobu_q
from qalt.qpoly import q_polynomial

PINNED = "c5ef25d225cc6d9324a527790c4d7439e8e67706245887fb3412de304cab1990"


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
        yield str(int_det(m))


def outputs_digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_are_pinned():
    assert outputs_digest() == PINNED
