"""The BLM/Ho Q-polynomial by memoized unoriented skein recursion.

Q is determined by Q(unknot) = 1 and Q(L+) + Q(L-) = x (Q(L0) + Q(L-inf)).
The engine walks a diagram once, switches the crossings that are first
reached on their understrand until the diagram is descending (hence an
unlink, Q = (2x^-1 - 1)^(k-1)), and expands the skein relation along that
chain; the two smoothings at each chain step recurse into strictly smaller
diagrams.  Split pieces factor through Q(A u B) = (2x^-1 - 1) Q(A) Q(B) in
`diagram._expand`, which the bracket shares; `diagram._admit` checks input.

The memo is keyed on the exact diagram, `PDDiagram.key()`, and not on a
relabeling-invariant code.  The exact key cannot collide and costs one
tuple, where a canonical code walks the diagram from each of its 4n starts
and took most of the run time.  Every move renumbers arcs densely, so most
repeated subdiagrams come out identical and the memo still hits.
"""

from __future__ import annotations

from .diagram import (
    PDDiagram,
    SmoothingKind,
    _admit,
    _expand,
    _strands,
    simplify,
    smooth,
    switch,
)
from .errors import MalformedDiagramError
from .poly import IntLaurent

DEFAULT_MAX_CROSSINGS = 14

_X = IntLaurent.x()
_UNLINK = IntLaurent({-1: 2, 0: -1})  # 2x^-1 - 1, the extra-component factor


def q_polynomial(
    d: PDDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    memo: dict | None = None,
) -> IntLaurent:
    """Q-polynomial of the link presented by `d`.

    The empty link and a non-planar PD code raise MalformedDiagramError."""
    _admit(d, max_crossings)
    if memo is None:
        memo = {}
    return _q(d, memo)


def q_degree(d: PDDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> int:
    return q_polynomial(d, max_crossings).degree()


def check_lemma22(
    d: PDDiagram, crossing_index: int, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> bool:
    """deg Q(D) <= max(deg Q(D_A), deg Q(D_B)) + 1 at the given crossing."""
    if not 0 <= crossing_index < len(d):
        raise MalformedDiagramError(f"no crossing {crossing_index} in diagram")
    memo: dict = {}
    dq = q_polynomial(d, max_crossings, memo).degree()
    da = q_polynomial(smooth(d, crossing_index, SmoothingKind.A), max_crossings, memo)
    db = q_polynomial(smooth(d, crossing_index, SmoothingKind.B), max_crossings, memo)
    return dq <= max(da.degree(), db.degree()) + 1


def _q(d: PDDiagram, memo: dict) -> IntLaurent:
    return _expand(simplify(d), memo, _UNLINK, _q_connected)


def _q_connected(d: PDDiagram, memo: dict) -> IntLaurent:
    # switch the crossings first reached on their understrand, in walk order
    strands = _strands(d)
    seen: set[int] = set()
    bad = []
    for strand in strands:
        for c, s in strand:
            if c not in seen:
                seen.add(c)
                if s % 2 == 0:
                    bad.append(c)
    k = len(strands)
    # descending endpoint of the switch chain is a k-component unlink
    chain = [d]
    cur = d
    for c in bad:
        cur = switch(cur, c)
        chain.append(cur)
    val = _UNLINK ** (k - 1)
    memo[chain[-1].key()] = val
    for j in range(len(bad) - 1, -1, -1):
        c = bad[j]
        qa = _q(smooth(chain[j], c, SmoothingKind.A), memo)
        qb = _q(smooth(chain[j], c, SmoothingKind.B), memo)
        val = _X * (qa + qb) - val
        memo[chain[j].key()] = val
    return val
