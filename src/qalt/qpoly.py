"""The BLM/Ho Q-polynomial by memoized unoriented skein recursion.

Q is determined by Q(unknot) = 1 and Q(L+) + Q(L-) = x (Q(L0) + Q(L-inf)).
The engine walks a diagram once, switches the crossings that are first
reached on their understrand until the diagram is descending (hence an
unlink, Q = (2x^-1 - 1)^(k-1)), and expands the skein relation along that
chain; the two smoothings at each chain step recurse into strictly smaller
diagrams.  Split pieces factor through Q(A u B) = (2x^-1 - 1) Q(A) Q(B).

The memo is keyed on the exact diagram, `PDDiagram.key()`, and not on a
relabeling-invariant code.  The exact key cannot collide and costs one
tuple, where a canonical code walks the diagram from each of its 4n starts
and took most of the run time.  Every move renumbers arcs densely, so most
repeated subdiagrams come out identical and the memo still hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    PDDiagram,
    SmoothingKind,
    _check_planar,
    _split_pieces,
    _walk_passes,
    num_components,
    simplify,
    smooth,
    switch,
)
from .errors import CrossingLimitError, MalformedDiagramError
from .poly import IntLaurent

DEFAULT_MAX_CROSSINGS = 14

_X = IntLaurent.x()
_UNLINK = IntLaurent({-1: 2, 0: -1})  # 2x^-1 - 1, the extra-component factor


@dataclass(frozen=True)
class QResult:
    q: IntLaurent
    diagram_components: int


def q_polynomial(
    d: PDDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    memo: dict | None = None,
) -> IntLaurent:
    """Q-polynomial of the link presented by `d`.

    A non-planar PD code raises MalformedDiagramError."""
    if len(d) > max_crossings:
        raise CrossingLimitError(
            f"{len(d)} crossings exceed the bound {max_crossings}"
        )
    _check_planar(d)
    if memo is None:
        memo = {}
    return _q(d, memo)


def q_result(d: PDDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> QResult:
    return QResult(q_polynomial(d, max_crossings), num_components(d))


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
    d = simplify(d)
    pieces = _split_pieces(d)
    parts = len(pieces) + d.free_loops
    if parts == 0:
        raise MalformedDiagramError("the empty link has no Q-polynomial")
    out = _UNLINK ** (parts - 1)
    for piece in pieces:
        out = out * _q_connected(piece, memo)
    return out


def _first_visit_under(d: PDDiagram) -> list[int]:
    """Crossings first reached on their understrand, in walk order."""
    piece = list(range(len(d.crossings)))
    seen: set[int] = set()
    bad = []
    for c, s in _walk_passes(d, piece, (0, 1)):
        if c not in seen:
            seen.add(c)
            if s % 2 == 0:
                bad.append(c)
    return bad


def _q_connected(d: PDDiagram, memo: dict) -> IntLaurent:
    key = d.key()
    cached = memo.get(key)
    if cached is not None:
        return cached

    bad = _first_visit_under(d)
    k = num_components(d)
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
