"""Jones polynomial via the Kauffman bracket, link determinant, and the
deg Q < det obstruction verdict.

The bracket is computed two ways: a literal 2^n state sum (the reference
oracle) and, by default, the frontier sweep of `diagram.py` that Q shares,
over the Catalan(k) crossingless matchings of 2k points (Temperley-Lieb;
Makowsky and Marino 2003).  The shared `diagram._transition(_bracket, ...)`
is the bracket of a crossingless tangle glued to one crossing or one cap; the
tangle engine `_smoothing` expands <D> = A <D_A> + A^-1 <D_B> at the first
crossing, as does a piece wider than SWEEP_WIDTH, and the shared
`diagram._combine` adds the two terms.  The engine sees the diagram as given:
the kinks and clasps that `diagram.simplify` removes change the writhe.
V is normalized by (-A)^(-3w) and realized in s = t^(1/2) via t = A^-4.

det(L) = |V_L(-1)| with t = -1 evaluated exactly as s = i.  A Goeritz-form
determinant over a checkerboard coloring of the faces (`diagram._faces`) is
included as an independent cross-check that also handles diagrams beyond the
bracket's crossing bound.  `diagram._admit` rejects the empty link and a
non-planar PD code with MalformedDiagramError before any engine starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .diagram import (
    PDDiagram,
    SmoothingKind,
    _admit,
    _combine,
    _expand,
    _find,
    _ONE,
    _strands,
    smooth,
)
from .errors import InternalConsistencyError, MalformedDiagramError
from .intmat import int_det
from .poly import HalfLaurent, IntLaurent, breadth_t, eval_at_s_equals_i
from .qpoly import DEFAULT_MAX_CROSSINGS, q_degree

JONES_MAX_CROSSINGS = 16

_LOOP = IntLaurent({2: -1, -2: -1})  # delta = -A^2 - A^-2
_A = IntLaurent.term(1, 1)
_A_INV = IntLaurent.term(1, -1)


# -- orientation --------------------------------------------------------


@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram with a direction chosen on every component.

    `entries` holds, per crossing, the pair (under entry slot, over entry
    slot); `writhe` the signed crossing sum.
    """

    base: PDDiagram
    entries: tuple[tuple[int, int], ...]
    writhe: int

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(
            _crossing_sign(u, o) for u, o in self.entries
        )


def _crossing_sign(under_entry: int, over_entry: int) -> int:
    # positive when rotating the over direction a quarter turn
    # counterclockwise gives the under direction
    return 1 if (under_entry, over_entry) in ((0, 3), (2, 1)) else -1


def orient(d: PDDiagram, flips: frozenset[int] | set[int] = frozenset()) -> OrientedDiagram:
    """Orient each component along its walk direction; `flips` reverses
    the listed walk-components.

    Components are numbered in the order `diagram._strands` lists them;
    the canonical orientation is the one with no flips.
    """
    under = [0] * len(d.crossings)
    over = [0] * len(d.crossings)
    for comp, strand in enumerate(_strands(d)):
        turn = 2 if comp in flips else 0
        for c, s in strand:
            (over if s % 2 else under)[c] = (s + turn) % 4

    entries = tuple(zip(under, over))
    writhe = sum(_crossing_sign(u, o) for u, o in entries)
    return OrientedDiagram(d, entries, writhe)


# -- Kauffman bracket ---------------------------------------------------


def bracket_state_sum(d: PDDiagram) -> IntLaurent:
    """<D> by brute force over all 2^n smoothings (reference oracle)."""
    _admit(d, JONES_MAX_CROSSINGS)
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


def _bracket(d: PDDiagram, memo: dict) -> dict:
    return _expand(d, memo, _LOOP, _bracket, _smoothing)


def _smoothing(d: PDDiagram, memo: dict) -> dict:
    """<d> over the crossingless basis by smoothing its first crossing; a
    crossingless tangle (`_expand` splits off free loops) is the unit vector
    of its matching."""
    if not d.crossings:
        return {tuple((s[0][1], s[-1][1]) for s in _strands(d)): _ONE}
    a = _bracket(smooth(d, 0, SmoothingKind.A), memo)
    b = _bracket(smooth(d, 0, SmoothingKind.B), memo)
    return _combine(((_A, a), (_A_INV, b)))


def kauffman_bracket(d: PDDiagram, max_crossings: float = inf) -> IntLaurent:
    """<D> as a Laurent polynomial in A, by the frontier sweep; more than
    `max_crossings` crossings raise CrossingLimitError."""
    _admit(d, max_crossings)
    return _bracket(d, {})[()]


def _normalize_bracket(bracket: IntLaurent, writhe: int) -> HalfLaurent:
    # V = (-A)^{-3w} <D>, then s = A^-2 (so t = A^-4)
    signed = bracket * IntLaurent.term(-1 if writhe % 2 else 1, -3 * writhe)
    out: dict[int, int] = {}
    for e, v in signed.items():
        if e % 2:
            raise InternalConsistencyError("odd A-exponent in normalized bracket")
        out[-e // 2] = v
    return HalfLaurent(out)


def jones_polynomial(
    d: PDDiagram | OrientedDiagram, max_crossings: int = JONES_MAX_CROSSINGS
) -> HalfLaurent:
    """V_L(t) as a polynomial in s = t^(1/2), normalized to V(unknot) = 1."""
    if not isinstance(d, OrientedDiagram):
        d = orient(d)
    return _normalize_bracket(kauffman_bracket(d.base, max_crossings), d.writhe)


def _det_from_jones(v: HalfLaurent) -> int:
    value = eval_at_s_equals_i(v)
    try:
        return value.abs_pure()
    except ValueError as e:
        raise InternalConsistencyError(
            f"V(-1) = {value!r} is neither purely real nor purely imaginary"
        ) from e


def _breadth_from_jones(v: HalfLaurent) -> Fraction:
    if v.is_zero():
        raise InternalConsistencyError("Jones polynomial of a nonempty link is zero")
    return breadth_t(v)


def determinant(
    d: PDDiagram, max_crossings: int = JONES_MAX_CROSSINGS
) -> int:
    """det(L) = |V_L(-1)|, evaluated exactly at s = i."""
    return _det_from_jones(jones_polynomial(d, max_crossings))


def breadth(d: PDDiagram, max_crossings: int = JONES_MAX_CROSSINGS) -> Fraction:
    """Breadth of V_L in t-units (orientation independent)."""
    return _breadth_from_jones(jones_polynomial(d, max_crossings))


# -- Goeritz determinant (independent oracle) ----------------------------


def determinant_goeritz(d: PDDiagram) -> int:
    """det(L) from a Goeritz form of a checkerboard coloring.

    Works for any number of crossings; split diagrams return 0 and
    non-planar codes raise MalformedDiagramError.  The time goes to
    :func:`~qalt.intmat.int_det` on a sparse minor.  Measured on a 2-core
    Xeon with Python 3.11 (CPU time): the reduced closure of (s1 s2^-1)^k
    takes 0.006 s at 200 crossings, 0.05 s at 800, 0.17 s at 1600 and
    0.55 s at 3200; reduced random 4-braids take 0.006 s at 292 crossings
    and 0.1 s at 1152.
    """
    nfaces, face_of = _admit(d)
    if not d.crossings:
        return 1 if d.free_loops == 1 else 0
    # a planar diagram has n + 2 faces per piece, so more means split
    if nfaces > len(d.crossings) + 2 or d.free_loops:
        return 0
    # 2-color faces: corners k and k+1 at a crossing see opposite colors
    color = [-1] * nfaces
    color[face_of[(0, 0)]] = 0
    stack = [face_of[(0, 0)]]
    adj: dict[int, set[int]] = {i: set() for i in range(nfaces)}
    for c in range(len(d.crossings)):
        for k in range(4):
            f1 = face_of[(c, k)]
            f2 = face_of[(c, (k + 1) % 4)]
            adj[f1].add(f2)
            adj[f2].add(f1)
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if color[g] == -1:
                color[g] = 1 - color[f]
                stack.append(g)
            elif color[g] == color[f]:
                raise MalformedDiagramError("diagram is not checkerboard colorable")
    white = [i for i in range(nfaces) if color[i] == 0]
    index = {f: i for i, f in enumerate(white)}
    m = len(white)
    g = [[0] * m for _ in range(m)]
    for c in range(len(d.crossings)):
        corners = [face_of[(c, k)] for k in range(4)]
        if color[corners[0]] == 0:
            w1, w2 = corners[0], corners[2]
            eta = 1
        else:
            w1, w2 = corners[1], corners[3]
            eta = -1
        i, j = index[w1], index[w2]
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    # g has zero row sums, so every principal cofactor has the same |det|;
    # deleting the face with the most neighbours keeps the minor sparse
    k = index[max(white, key=lambda f: len(adj[f]))]
    minor = [row[:k] + row[k + 1 :] for i, row in enumerate(g) if i != k]
    return abs(int_det(minor))


# -- the obstruction ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: str  # "NotQuasiAlternating" | "Inconclusive"
    deg_q: int
    det: int
    breadth: Fraction


def obstruction_check(
    d: PDDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jones_max_crossings: int = JONES_MAX_CROSSINGS,
) -> ObstructionVerdict:
    """Flag the link as NotQuasiAlternating when deg Q >= det.

    The breadth is attached as evidence only; the breadth <= det statement
    is a conjecture and never used to rule links out.
    """
    dq = q_degree(d, max_crossings)
    v = jones_polynomial(d, jones_max_crossings)
    dt = _det_from_jones(v)
    br = _breadth_from_jones(v)
    verdict = "NotQuasiAlternating" if dq >= dt else "Inconclusive"
    return ObstructionVerdict(verdict, dq, dt, br)
