"""Jones polynomial via the Kauffman bracket, link determinant, and the
deg Q < det obstruction verdict.

The bracket is computed two ways: a literal 2^n state sum (the reference
oracle) and, by default, the frontier sweep of `diagram.py` that Q shares,
over the Catalan(k) crossingless matchings of 2k points (Temperley-Lieb;
Makowsky and Marino 2003).  The bracket supplies its loop factor, delta =
-A^2 - A^-2 per piece or free loop past the first, and its transitions,
`diagram._transition(_bracket, ...)`, the bracket of a crossingless tangle
glued to one crossing or one cap; `diagram._sweep` says how they are kept,
compiled into step programs and run on packed integers.  The tangle engine
`_smoothing` expands <D> = A <D_A> + A^-1 <D_B> at the first crossing, as
does a piece wider than SWEEP_WIDTH, and `poly.combine` sums the two terms
with the ring's own `*` and `+`.  The engine sees the diagram as given:
the kinks and clasps that `diagram.simplify` removes change the writhe.
V is normalized by (-A)^(-3w) and realized in s = t^(1/2) via t = A^-4.

det(L) = |V_L(-1)|, and a check derives it and the breadth of V from <D>
alone, with no orientation and no writhe.  The exponents of <D> are all
congruent to the lowest, lo, mod 4 (Kauffman 1987), so at t = -1, which is
A^4 = -1, det(L) = |sum of c_e (-1)^((e - lo)/4)| over the terms c_e A^e; the
t-breadth of V is the A-span of <D> over 4.  A kink or a clasp that
`diagram.simplify` removes multiplies <D> by a unit +-A^k, which keeps both,
so `obstruction_check` reads them from the bracket of `simplify(d)`, the
diagram Q expands.  The Goeritz determinant checks det at every size:
|det G| = det(L) (Gordon and Litherland 1978) for G the Laplacian of either
class of checkerboard faces, white or black, with one signed edge per
crossing, and `determinant_goeritz` takes the class with fewer faces.
Corner k of crossing c is white when k + flip[c] is even; `diagram._faces`
numbers corners as the ends of `PDDiagram.partner`, 4c+k, and puts corners
4c+s and 4c2+(s2+1 mod 4) in one face when an arc joins slot s of c to slot s2
of c2, so one walk over `partner` sets flip[c2] = flip[c] + s + s2 + 1
(mod 2).  `diagram._admit` rejects the empty link and a non-planar PD
code with MalformedDiagramError before any engine starts.  A bracket bound,
none by default, counts the crossings of the pieces with no sweep plan; the
2^n state sum takes at most FALLBACK_MAX_CROSSINGS (16).  The end table is
built with the diagram, and the face walk and the piece split over it, the
piece sub-diagrams and their sweep plans are kept on it, so
`obstruction_check` derives each once for Q and the bracket of `simplify(d)`
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .diagram import (
    FALLBACK_MAX_CROSSINGS,
    PDDiagram,
    SmoothingKind,
    _admit,
    _expand,
    _find,
    _strands,
    simplify,
    smooth,
)
from .errors import CrossingLimitError, InternalConsistencyError, MalformedDiagramError
from .intmat import laplacian_det
from .poly import HalfLaurent, IntLaurent, combine
from .qpoly import q_polynomial

_LOOP = IntLaurent({2: -1, -2: -1})  # delta = -A^2 - A^-2
_A = IntLaurent.term(1, 1)
_A_INV = IntLaurent.term(1, -1)
_ONE = IntLaurent.const(1)


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
    the canonical orientation is the one with no flips.  A flip past the
    last of them, or below 0, raises MalformedDiagramError.
    """
    strands = _strands(d)
    bad = sorted(i for i in flips if not 0 <= i < len(strands))
    if bad:
        raise MalformedDiagramError(f"flips {bad} name none of the {len(strands)} walk-components")
    under = [0] * len(d.crossings)
    over = [0] * len(d.crossings)
    for comp, strand in enumerate(strands):
        turn = 2 if comp in flips else 0
        for c, s in strand:
            (over if s % 2 else under)[c] = (s + turn) % 4

    entries = tuple(zip(under, over))
    writhe = sum(_crossing_sign(u, o) for u, o in entries)
    return OrientedDiagram(d, entries, writhe)


# -- Kauffman bracket ---------------------------------------------------


def bracket_state_sum(d: PDDiagram) -> IntLaurent:
    """<D> over all 2^n smoothings, n <= FALLBACK_MAX_CROSSINGS (reference oracle)."""
    if len(_admit(d)) > FALLBACK_MAX_CROSSINGS:
        raise CrossingLimitError(f"{len(d)} crossings exceed the bound {FALLBACK_MAX_CROSSINGS}")
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
    return combine(((_A, a), (_A_INV, b)))


def kauffman_bracket(d: PDDiagram, max_crossings: float = inf) -> IntLaurent:
    """<D> in A by the frontier sweep; more than `max_crossings` crossings, no
    bound by default, on the pieces with no sweep plan raise CrossingLimitError,
    and a NaN or negative bound ValueError."""
    return _bracket(_admit(d, max_crossings), {})[()]


def _normalize_bracket(bracket: IntLaurent, writhe: int) -> HalfLaurent:
    # V = (-A)^{-3w} <D>, then s = A^-2 (so t = A^-4)
    signed = bracket * IntLaurent.term(-1 if writhe % 2 else 1, -3 * writhe)
    low, run = signed.run()
    if low % 2 or any(run[1::2]):
        raise InternalConsistencyError("odd A-exponent in normalized bracket")
    # A^e goes to s^(-e/2): every other slot, top first
    return HalfLaurent.from_run(-signed.degree() // 2, run[::-2])


def jones_polynomial(d: PDDiagram | OrientedDiagram, max_crossings: float = inf) -> HalfLaurent:
    """V_L(t) as a polynomial in s = t^(1/2), normalized to V(unknot) = 1;
    `max_crossings` bounds the bracket as in `kauffman_bracket`, none by default."""
    if not isinstance(d, OrientedDiagram):
        d = orient(d)
    return _normalize_bracket(kauffman_bracket(d.base, max_crossings), d.writhe)


def _det_and_breadth(bracket: IntLaurent) -> tuple[int, Fraction]:
    """(det(L), breadth of V_L in t-units) from a bracket <D> of L: <D> at
    A^4 = -1 in absolute value, and its A-span over 4."""
    if bracket.is_zero():
        raise InternalConsistencyError("Kauffman bracket of a nonempty link is zero")
    lo, run = bracket.run()
    if any(run[1::4]) or any(run[2::4]) or any(run[3::4]):
        e = next(lo + k for k, c in enumerate(run) if c and k % 4)
        raise InternalConsistencyError(f"bracket exponents {lo} and {e} differ mod 4")
    # A^(lo + 4j) at A^4 = -1 is (-1)^j A^lo
    return abs(sum(run[0::8]) - sum(run[4::8])), Fraction(len(run) - 1, 4)


def determinant(d: PDDiagram) -> int:
    """det(L) = |V_L(-1)|: the bracket of `simplify(d)` at A^4 = -1, in
    absolute value."""
    return _det_and_breadth(kauffman_bracket(_admit(d, inf, simplify)))[0]


def breadth(d: PDDiagram) -> Fraction:
    """Breadth of V_L in t-units (orientation independent): the A-span of
    the bracket of `simplify(d)` over 4."""
    return _det_and_breadth(kauffman_bracket(_admit(d, inf, simplify)))[1]


# -- Goeritz determinant (independent oracle) ----------------------------


def determinant_goeritz(d: PDDiagram) -> int:
    """det(L) from a Goeritz form of a checkerboard coloring.

    Works for any number of crossings; split diagrams return 0 and
    non-planar codes raise MalformedDiagramError.  Either class of faces,
    white or black, gives a Goeritz matrix, the minor of its Laplacian with
    one signed edge per crossing, and each presents H_1 of the double
    branched cover, so |det| is det(L) for both (Gordon and Litherland
    1978); the black class is the white one with every flip[c] inverted,
    corners k + 1 and k + 3 and sign -eta.  The minor is taken over the
    class with fewer faces, white on a tie: P(40, 40, -40) has 119 white
    faces and 3 black, so its minor has order 2, not 118, and a balanced
    braid closure keeps its white minor.  The time goes to
    :func:`~qalt.intmat.laplacian_det` on a sparse minor.  Measured on a
    2-core Xeon with Python 3.11.7 (CPU time, best of 3 in one process,
    two runs): the reduced closure of (s1 s2^-1)^k takes 0.0008-0.0009 s
    at 200 crossings, 0.004 s at 800, 0.010-0.011 s at 1600 and
    0.036-0.037 s at 3200; reduced random 4-braids of 400, 800 and 1600
    letters (seed 5) take 0.002 s at 240 crossings, 0.009 s at 478 and
    0.022 s at 988; P(300, 300, -300) takes 0.0016-0.0017 s, against
    0.0051-0.0053 s on its white minor.
    """
    nfaces, face = _admit(d).faces
    if not d.crossings:
        return 1 if d.free_loops == 1 else 0
    # a planar diagram has n + 2 faces per piece, so more means split
    if nfaces > len(d.crossings) + 2 or d.free_loops:
        return 0
    partner = d.partner
    flip = {0: 0}  # corner k of crossing c is white when k + flip[c] is even
    stack = [0]
    while stack:
        c = stack.pop()
        for e in range(4 * c, 4 * c + 4):
            f = partner[e]  # slot s = e % 4 of c meets slot s2 = f % 4 of c2
            c2, k = f >> 2, (flip[c] + e + f + 1) & 1
            if c2 not in flip:
                flip[c2] = k
                stack.append(c2)
            elif flip[c2] != k:
                raise MalformedDiagramError("diagram is not checkerboard colorable")
    vertices, edges = _goeritz_graph(flip, face, 0)
    if nfaces - vertices < vertices:
        vertices, edges = _goeritz_graph(flip, face, 1)
    return abs(laplacian_det(vertices, edges))


def _goeritz_graph(flip: dict[int, int], face: list[int], color: int) -> tuple[int, list]:
    """The number of faces of one checkerboard class, white (`color` 0) or
    black (1), and one signed edge per crossing between them: crossing c
    joins its corners j and j + 2, j = flip[c] ^ color, with eta = 1 - 2j."""
    index: dict[int, int] = {}
    edges = []
    for c, k in flip.items():
        j = k ^ color
        u = index.setdefault(face[4 * c + j], len(index))
        v = index.setdefault(face[4 * c + j + 2], len(index))
        edges.append((u, v, 1 - 2 * j))
    return len(index), edges


# -- the obstruction ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: str  # "NotQuasiAlternating" | "Inconclusive"
    deg_q: int
    det: int
    breadth: Fraction


def obstruction_check(
    d: PDDiagram,
    max_crossings: float = FALLBACK_MAX_CROSSINGS,
    jones_max_crossings: float = inf,
) -> ObstructionVerdict:
    """Flag the link as NotQuasiAlternating when deg Q >= det.

    Q and the bracket are both taken of `simplify(d)`, so they share its
    tables and each piece's sweep plan; det and the breadth are read from the
    bracket (`_det_and_breadth`), with no orientation.  Both bounds count the
    crossings of the pieces of `simplify(d)` with no sweep plan: that of
    `q_polynomial` (`max_crossings`, default 16) and that of
    `kauffman_bracket` (`jones_max_crossings`, none by default).

    The breadth is attached as evidence only; the breadth <= det statement
    is a conjecture and never used to rule links out.
    """
    reduced = _admit(d, max_crossings, simplify)
    # the bracket first: a bad bracket bound is refused before Q runs
    dt, br = _det_and_breadth(kauffman_bracket(reduced, jones_max_crossings))
    dq = q_polynomial(reduced, max_crossings).degree()
    verdict = "NotQuasiAlternating" if dq >= dt else "Inconclusive"
    return ObstructionVerdict(verdict, dq, dt, br)
