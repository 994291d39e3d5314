import random

import pytest

from qalt.diagram import PDDiagram, _strands, close_braid


def random_braid_diagram(rng: random.Random, max_letters: int = 8, strands: int = 3) -> PDDiagram:
    """A random (valid, planar) diagram as a closed braid."""
    gens = [g for i in range(1, strands) for g in (i, -i)]
    word = [rng.choice(gens) for _ in range(rng.randint(1, max_letters))]
    return close_braid(word, strands)


def matchings(points):
    """Every perfect matching of `points`, as pairs (p, q), p < q, in order of p."""
    if not points:
        yield ()
        return
    p, rest = points[0], points[1:]
    for k, q in enumerate(rest):
        for m in matchings(rest[:k] + rest[k + 1 :]):
            yield ((p, q),) + m


def longest_bridge(d: PDDiagram) -> int:
    """b of Kidwell's bound deg Q <= n - b: the longest run of consecutive
    over-passes (odd entry slots) along a strand of `_strands`, around the
    whole component when it is closed."""
    b = 0
    for strand in _strands(d):
        over = [s % 2 for c, s in strand if c >= 0]
        if all(over):
            b = max(b, len(over))
            continue
        k = over.index(0)  # start after an under-pass, so no run wraps
        run = 0
        for o in over[k:] + over[:k]:
            run = run + 1 if o else 0
            b = max(b, run)
    return b


@pytest.fixture
def rng():
    return random.Random(20140602)
