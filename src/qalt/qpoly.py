"""The BLM/Ho Q-polynomial of links and tangles, by a frontier sweep over the
descending basis, with a memoized skein recursion behind it.

Q is determined by Q(unknot) = 1 and Q(L+) + Q(L-) = x (Q(L0) + Q(L-inf)).

Q of a tangle diagram with 2k boundary points (`PDDiagram.boundary`) is a
vector over the (2k-1)!! matchings of its positions.  The basis tangle of a
matching has its arcs stacked, the arc with the lower position above the
others, and each arc monotone in height.  A link's one matching is ().

The switch chain `_chain` walks a diagram once (`diagram._strands`, over the
end table `PDDiagram.partner`), switches the crossings first reached on their
understrand, and expands the skein relation along that chain; the two
smoothings at each step recurse into smaller diagrams.  The descending end
is (2x^-1 - 1)^c times the basis tangle of its matching, c its closed
components.

A connected link piece is swept instead, by the planner and state loop of
`diagram.py` that the bracket shares; the state holds at most 105 entries at
SWEEP_WIDTH = 8 points.  Q supplies its transitions,
`diagram._transition(_q, ...)`, `_q` of a basis tangle glued to one crossing
or one cap; `diagram._sweep` says how they are kept, compiled into step
programs and run on packed integers.  A wider piece goes to the switch
chain, whose smaller pieces are swept again; `poly.combine` sums the
vectors of each skein step with the ring's own `*` and `+`.

`diagram._expand` splits pieces by Q(A u B) = (2x^-1 - 1) Q(A) Q(B), and
memoizes on the exact diagram, `PDDiagram.key()`: it cannot collide, and
every move renumbers arcs densely, so repeated subdiagrams still hit.
`diagram._admit` checks the input and bounds the crossings of the pieces of
`simplify(d)` with no sweep plan (FALLBACK_MAX_CROSSINGS = 16 by default).
The end table is built with the diagram; the face walk of the gate and the
piece split over it, the piece sub-diagrams and the sweep plan of each are
kept on the diagram object.  `simplify` moves on a copy of the end table
and returns a reduced diagram itself, marked, so
a second admission skips the scan and the bracket of the same object reuses
its tables.
"""

from __future__ import annotations

from .diagram import (
    FALLBACK_MAX_CROSSINGS,
    PDDiagram,
    SmoothingKind,
    _admit,
    _expand,
    _strands,
    simplify,
    smooth,
    switch,
)
from .poly import IntLaurent, combine

_X = IntLaurent.x()
_MINUS_ONE = IntLaurent.const(-1)
_UNLINK = IntLaurent({-1: 2, 0: -1})  # 2x^-1 - 1, the extra-component factor


def q_polynomial(
    d: PDDiagram,
    max_crossings: float = FALLBACK_MAX_CROSSINGS,
    memo: dict | None = None,
) -> IntLaurent:
    """Q-polynomial of the link presented by `d`.

    The empty link and a non-planar PD code raise MalformedDiagramError; more
    than `max_crossings` crossings (default 16) on the pieces of `simplify(d)`
    with no sweep plan, which go to the switch chain, CrossingLimitError; a
    NaN or negative `max_crossings`, ValueError."""
    reduced = _admit(d, max_crossings, simplify)
    if memo is None:
        memo = {}
    return _expand(reduced, memo, _UNLINK, _q, _chain)[()]


def q_degree(d: PDDiagram) -> int:
    return q_polynomial(d).degree()


def _q(d: PDDiagram, memo: dict) -> dict:
    # A link sweep closes its frontier by a crossing that meets all 4 points;
    # that transition sweeps the glued link, and unless R1/R2 shrink it, that
    # sweep ends on closing transitions that ask for each other forever.
    return _expand(simplify(d), memo, _UNLINK, _q, _chain)


def _chain(d: PDDiagram, memo: dict) -> dict:
    """Q of `d` by the switch chain; every diagram on the chain is memoized."""
    strands = _strands(d)
    seen = {-1}  # crossing -1 marks the boundary ends of an arc
    bad = []
    for strand in strands:
        for c, s in strand:
            if c not in seen:
                seen.add(c)
                if s % 2 == 0:
                    bad.append(c)
    arcs = len(d.boundary) // 2
    chain = [d]
    cur = d
    for c in bad:
        cur = switch(cur, c)
        chain.append(cur)
    matching = tuple((strand[0][1], strand[-1][1]) for strand in strands[:arcs])
    val = {matching: _UNLINK ** (len(strands) + d.free_loops - max(arcs, 1))}
    memo[chain[-1].key()] = val
    for j in range(len(bad) - 1, -1, -1):
        c = bad[j]
        qa = _q(smooth(chain[j], c, SmoothingKind.A), memo)
        qb = _q(smooth(chain[j], c, SmoothingKind.B), memo)
        # Q(L+) = x (Q(L0) + Q(L-inf)) - Q(L-)
        val = combine(((_X, qa), (_X, qb), (_MINUS_ONE, val)))
        memo[chain[j].key()] = val
    return val

