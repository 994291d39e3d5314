import random

import pytest

from qalt.diagram import PDDiagram, close_braid


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


@pytest.fixture
def rng():
    return random.Random(20140602)
