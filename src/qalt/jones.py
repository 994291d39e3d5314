"""Jones polynomial via the Kauffman bracket, link determinant, and the
deg Q < det obstruction verdict.

The bracket is computed two ways: a literal 2^n state sum (the reference
oracle) and a memoized two-way skein recursion with R1/R2 reduction (the
default engine; equal to the state sum, just fast enough for grid scans).
V is normalized by (-A)^(-3w) and realized in s = t^(1/2) via t = A^-4.

det(L) = |V_L(-1)| with t = -1 evaluated exactly as s = i.  A Goeritz-form
determinant over a checkerboard coloring is included as an independent
cross-check that also handles diagrams beyond the bracket's crossing bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    PDDiagram,
    SmoothingKind,
    _connected_pieces,
    num_components,
    smooth,
)
from .errors import (
    CrossingLimitError,
    InternalConsistencyError,
    MalformedDiagramError,
)
from .intmat import int_det
from .poly import GaussianInt, HalfLaurent, IntLaurent, breadth_t, eval_at_s_equals_i
from .qpoly import DEFAULT_MAX_CROSSINGS, q_degree

JONES_MAX_CROSSINGS = 16

_LOOP = IntLaurent({2: -1, -2: -1})  # delta = -A^2 - A^-2


# -- orientation --------------------------------------------------------


@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram with a direction chosen on every component.

    `entries` holds, per crossing, the pair (under entry slot, over entry
    slot); `crossing_components` the walk-component ids of the two strands
    (under first); `writhe` the signed crossing sum.
    """

    base: PDDiagram
    entries: tuple[tuple[int, int], ...]
    crossing_components: tuple[tuple[int, int], ...]
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

    Components are numbered in the order their first pass is found; the
    canonical orientation is the one with no flips.
    """
    n = len(d.crossings)
    under: dict[int, int] = {}
    over: dict[int, int] = {}
    comp_of: dict[tuple[int, int], int] = {}  # (crossing, parity) -> component

    def free_pass():
        for cc in range(n):
            for p in (1, 0):
                if (cc, p) not in comp_of:
                    return (cc, p)
        return None

    comp = 0
    start = free_pass()
    while start is not None:
        comp_start = start
        c, s = start
        while True:
            entry = (s + 2) % 4 if comp in flips else s
            if s % 2 == 0:
                under[c] = entry
            else:
                over[c] = entry
            comp_of[(c, s % 2)] = comp
            c2, s2 = d.next_end(c, s)
            if (c2, s2) == comp_start:
                break
            c, s = c2, s2
        comp += 1
        start = free_pass()

    entries = tuple((under[i], over[i]) for i in range(n))
    comps = tuple((comp_of[(i, 0)], comp_of[(i, 1)]) for i in range(n))
    writhe = sum(_crossing_sign(u, o) for u, o in entries)
    return OrientedDiagram(d, entries, comps, writhe)


# -- Kauffman bracket ---------------------------------------------------


def bracket_state_sum(d: PDDiagram) -> IntLaurent:
    """<D> by brute force over all 2^n smoothings (reference oracle)."""
    n = len(d.crossings)
    if n > JONES_MAX_CROSSINGS:
        raise CrossingLimitError(f"{n} crossings exceed the bracket bound")
    total = IntLaurent.zero()
    for state in range(1 << n):
        parent: dict[int, int] = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

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
                rx, ry = find(x), find(y)
                if rx == ry:
                    loops += 1
                else:
                    parent[ry] = rx
        total = total + IntLaurent.term(1, a_minus_b) * _LOOP ** (loops - 1)
    return total


def _reduce_for_bracket(d: PDDiagram):
    """Strip R1 kinks (collecting -A^{+-3} factors) and R2 bigons."""
    from .diagram import _find_r1, _find_r2, _rebuild

    factor = IntLaurent.const(1)
    while True:
        r1 = _find_r1(d)
        if r1 is not None:
            i, s = r1
            t = d.crossings[i]
            x, y = t[(s + 2) % 4], t[(s + 3) % 4]
            kept = [c for j, c in enumerate(d.crossings) if j != i]
            # loop arc at slots {s, s+1}: A-smoothing closes the circle for
            # {0,1}/{2,3}, giving -A^3; B closes it for {1,2}/{3,0}: -A^-3
            factor = factor * IntLaurent.term(-1, 3 if s % 2 == 0 else -3)
            d = _rebuild(kept, [(x, y)], d.free_loops)
            continue
        r2 = _find_r2(d)
        if r2 is not None:
            c1, c2, over_arc, under_arc = r2
            fusions = []
            for c in (c1, c2):
                t = d.crossings[c]
                over_pair = [t[1], t[3]]
                under_pair = [t[0], t[2]]
                over_pair.remove(over_arc)
                under_pair.remove(under_arc)
                fusions.append((over_arc, over_pair[0]))
                fusions.append((under_arc, under_pair[0]))
            kept = [t for j, t in enumerate(d.crossings) if j not in (c1, c2)]
            d = _rebuild(kept, fusions, d.free_loops)
            continue
        return d, factor


def _bracket(d: PDDiagram, memo: dict) -> IntLaurent:
    d, factor = _reduce_for_bracket(d)
    if not d.crossings:
        k = d.free_loops
        if k == 0:
            raise MalformedDiagramError("the empty link has no bracket")
        return factor * _LOOP ** (k - 1)
    pieces = _connected_pieces(d)
    parts = len(pieces) + d.free_loops
    if parts > 1:
        out = factor * _LOOP ** (parts - 1)
        for piece in pieces:
            out = out * _bracket(PDDiagram([d.crossings[i] for i in piece], 0), memo)
        return out
    key = d.key()
    cached = memo.get(key)
    if cached is None:
        a = _bracket(smooth(d, 0, SmoothingKind.A), memo)
        b = _bracket(smooth(d, 0, SmoothingKind.B), memo)
        cached = IntLaurent.term(1, 1) * a + IntLaurent.term(1, -1) * b
        memo[key] = cached
    return factor * cached


def kauffman_bracket(d: PDDiagram) -> IntLaurent:
    """<D> as a Laurent polynomial in A (memoized skein engine)."""
    return _bracket(d, {})


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
    od = d if isinstance(d, OrientedDiagram) else None
    base = d.base if od else d
    if len(base) > max_crossings:
        raise CrossingLimitError(
            f"{len(base)} crossings exceed the bound {max_crossings}"
        )
    if num_components(base) == 0:
        raise MalformedDiagramError("the empty link has no Jones polynomial")
    if od is None:
        od = orient(base)
    return _normalize_bracket(kauffman_bracket(base), od.writhe)


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


def _faces(d: PDDiagram):
    """Faces of the connected diagram as orbits of the left-turn walk.

    Returns (number of faces, face id per corner (crossing, k)), a corner
    being the region between slots k and k+1.
    """
    face_of: dict[tuple[int, int], int] = {}
    nfaces = 0
    for c0 in range(len(d.crossings)):
        for s0 in range(4):
            if (c0, s0) in face_of:
                continue
            # walk: leave crossing c via slot s, turn left at the far end
            c, s = c0, s0
            while (c, s) not in face_of:
                face_of[(c, s)] = nfaces
                arc = d.crossings[c][s]
                e1, e2 = d.ends[arc]
                c2, s2 = e2 if e1 == (c, s) else e1
                c, s = c2, (s2 + 1) % 4
            nfaces += 1
    return nfaces, face_of


def determinant_goeritz(d: PDDiagram) -> int:
    """det(L) from a Goeritz form of a checkerboard coloring.

    Works for any number of crossings; split diagrams return 0.
    """
    if num_components(d) == 0:
        raise MalformedDiagramError("the empty link has no determinant")
    if not d.crossings:
        return 1 if num_components(d) == 1 else 0
    pieces = _connected_pieces(d)
    if len(pieces) > 1 or d.free_loops:
        return 0
    nfaces, face_of = _faces(d)
    if nfaces != len(d.crossings) + 2:
        raise MalformedDiagramError(
            "diagram does not define a sphere diagram (nonplanar PD input?)"
        )
    # 2-color faces: corners k and k+1 at a crossing see opposite colors
    color = [-1] * nfaces
    stack = [0]
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
    minor = [row[1:] for row in g[1:]]
    return abs(int_det(minor))


# -- the obstruction ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: str  # "NotQuasiAlternating" | "Inconclusive"
    deg_q: int
    det: int
    breadth: Fraction

    @property
    def not_quasi_alternating(self) -> bool:
        return self.verdict == "NotQuasiAlternating"


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
