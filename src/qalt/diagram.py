"""Planar diagram codes of unoriented links, and the moves the skein engines need.

A crossing is a 4-tuple (a, b, c, d) of arc identifiers listed
counterclockwise, with the understrand occupying positions 0 and 2 (so the
strand a--c passes under b--d).  Crossingless unknotted components are
tracked as a bare count, since smoothing routinely produces them.

A tangle diagram also carries `boundary`, the arc labels where it meets the
boundary circle of its disk, listed counterclockwise from a base point; its
position p is the index in that tuple.  Every label occurs exactly twice among
the crossings and the boundary, so an arc that runs from boundary to boundary
without a crossing sits in the boundary twice.  A link has the empty
boundary.  `key()`, `smooth`, `switch`, `mirror` and `simplify` keep it, and
`_strands` walks each arc from its lower position.

The walks read one flat end table, `PDDiagram.partner`.  With n crossings,
end 4c+s is slot s of crossing c and end 4n+p boundary position p, and
`partner[e]` is the other end of e's arc.  A strand entering crossing c at
end e leaves it at e ^ 2 and enters the next at `partner[e ^ 2]`; the face
walk goes from corner e to `partner[e]` turned one slot counterclockwise.
The table is built with the diagram, in the pass that checks its labels,
and is its only arc table.  `simplify` scans it and, when a move applies,
makes its moves on a copy, joining the ends on either side of the strands
through each removed crossing; `connected_sum` finds the second end of an
arc as the partner of its first.

The frontier sweep of a connected link piece, shared by Q and the bracket,
runs the steps of the piece's `plan` over two process-wide caches keyed by
engine: `_row`, every width-free packed row of its transitions, by step and
matching id, and `_program`, the step programs compiled from them, by step
and the sorted tuple of the live matching ids, the _PROGRAMS_MAX used last
over both engines.  A program is a flat list of ops over the state's list
of values, the first op that writes a target storing its product and the
others adding to it, and a gain that bounds how much one step can grow an
entry.  A piece's chain of programs sets its digit width before any value
is computed, so each piece takes one value pass.

Smoothings carry neutral labels: kind A joins a-b and c-d, kind B joins
a-d and b-c.  At any crossing one of the two merges link components and the
other splits one.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain, combinations, count
from math import inf, prod
from operator import index
from typing import Callable, Iterable, Sequence

from .errors import CrossingLimitError, MalformedDiagramError, PDParseError
from .poly import nbytes_for, unpack

Crossing = tuple[int, int, int, int]


def _normalize(t: Crossing) -> Crossing:
    if len(t) != 4:
        raise MalformedDiagramError(f"crossing {t} is not a 4-tuple")
    rot = (t[2], t[3], t[0], t[1])
    return t if t <= rot else rot


class SmoothingKind(Enum):
    A = "A"  # join a-b and c-d
    B = "B"  # join a-d and b-c


class _table:
    """A table derived from a diagram's code on first access and kept in its
    `__dict__`, which then shadows this non-data descriptor; unlike
    `functools.cached_property` on Python 3.11 it takes no lock."""

    def __init__(self, build: Callable):
        self.build = build
        self.name = build.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class PDDiagram:
    """Immutable planar diagram: crossing tuples, a free-loop count and, for a
    tangle, its boundary labels.

    The end table `partner` is built with the diagram, in the pass that
    checks that every label names exactly two ends, and is its one arc
    table: the strand, piece and face walks, the canonical code, `simplify`,
    `connected_sum` and Goeritz's checkerboard read it.  The other tables
    derived from the code are computed on first use and kept on the object,
    which never changes: the connected `pieces`, their sub-diagrams `parts`,
    the face walk `faces` and, for a connected link, the sweep `plan`; the
    arc-keyed `ends` is built only when asked for.  So Q and the bracket of
    one diagram object walk its faces, split its pieces and plan the sweep of
    each once between them.  Every move builds a new diagram, with none of
    the lazy tables; a face walk that finds the code non-planar raises and
    keeps nothing, so it raises again on every later use.
    """

    _reduced = False  # True on a diagram `simplify` returned: it has no move to make

    def __init__(
        self,
        crossings: Iterable[Sequence[int]],
        free_loops: int = 0,
        boundary: Sequence[int] = (),
    ):
        try:
            # rotating a tuple by two is the same crossing; store the smaller form
            self.crossings: tuple[Crossing, ...] = tuple(
                _normalize(tuple(map(index, t))) for t in crossings
            )
            self.free_loops = index(free_loops)
            self.boundary: tuple[int, ...] = tuple(map(index, boundary))
        except TypeError as e:
            raise MalformedDiagramError(f"arc labels and the loop count must be integers: {e}") from e
        if self.free_loops < 0:
            raise MalformedDiagramError("negative free loop count")
        # pair each end with the first end of its label: every label names
        # exactly two ends when no end is left at -1, so none names one, and
        # the labels are half as many as the ends, so none names three or more
        partner = [-1] * (4 * len(self.crossings) + len(self.boundary))
        first: dict[int, int] = {}
        for e, a in enumerate(chain(chain.from_iterable(self.crossings), self.boundary)):
            f = first.setdefault(a, e)
            if f != e:
                partner[e] = f
                partner[f] = e
        if 2 * len(first) != len(partner) or -1 in partner:
            counts = Counter(chain(self.boundary, *self.crossings))
            bad = sorted(a for a, n in counts.items() if n != 2)
            raise MalformedDiagramError(f"arc identifiers {bad} do not occur exactly twice")
        self.partner = partner

    # -- basic structure ---------------------------------------------

    @_table
    def ends(self) -> dict[int, list[tuple[int, int]]]:
        """arc -> the two (crossing index, slot) positions where it ends, in
        scan order, boundary position p as (-1, p) after them.  No walk or
        move reads it; `qaltbench/corpus.py` takes the largest label from it."""
        ends: dict[int, list[tuple[int, int]]] = {}
        for e, a in enumerate(chain(chain.from_iterable(self.crossings), self.boundary)):
            ends.setdefault(a, []).append(divmod(e, 4) if e < 4 * len(self) else (-1, e - 4 * len(self)))
        return ends

    @_table
    def pieces(self) -> list[list[int]]:
        """`_connected_pieces(self)`; callers share the lists and only read them."""
        return _connected_pieces(self)

    @property
    def parts(self) -> list[PDDiagram]:
        """The connected pieces as diagrams without the free loops, in the
        order of `pieces`; a tangle is one piece.  `[self]` when that is all
        of `self`, else sub-diagrams kept on `self`, each with its own tables."""
        return [self] if self._split is None else self._split

    @_table
    def _split(self) -> list[PDDiagram] | None:
        """`parts` of a split diagram; None, not a cycle `[self]`, for one piece."""
        pieces = [range(len(self))] if self.boundary else self.pieces
        if len(pieces) == 1 and not self.free_loops:
            return None
        return [PDDiagram([self.crossings[i] for i in piece], 0, self.boundary) for piece in pieces]

    @_table
    def faces(self) -> tuple[int, list[int]]:
        """`_faces(self)`: (number of faces, face id per corner 4c+k); a
        non-planar code raises MalformedDiagramError on every access."""
        return _faces(self)

    @_table
    def plan(self) -> list[tuple[int, tuple]] | None:
        """`_sweep_steps(self)` of a connected link: its sweep steps, or None
        when it is too wide to sweep."""
        return _sweep_steps(self)

    def __len__(self) -> int:
        return len(self.crossings)

    def key(self) -> tuple[tuple[Crossing, ...], int, tuple[int, ...]]:
        """(crossings, free loops, boundary): equal exactly when the diagrams
        are equal.

        The skein engines memoize on this rather than on the diagram itself,
        so a memo keeps no diagram's tables alive.
        """
        return self.crossings, self.free_loops, self.boundary

    def __eq__(self, other):
        if not isinstance(other, PDDiagram):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.boundary:
            return f"PDDiagram({list(self.crossings)}, {self.free_loops}, {self.boundary})"
        return f"PDDiagram({render_pd(self)!r})"

    # -- canonical codes ------------------------------------------------

    def canonical_code(self):
        """Label-invariant code of the diagram (over/under aware).

        Lexicographically minimal walk encoding per connected piece, pieces
        sorted; equal codes mean equal diagrams up to arc/crossing
        relabeling and tuple rotation by two; a tangle raises MalformedDiagramError.
        """
        if self.boundary:
            raise MalformedDiagramError("a tangle has no canonical code")
        codes = sorted(
            min(_walk_code(self, (c, s)) for c in piece for s in range(4))
            for piece in self.pieces
        )
        return tuple(codes), self.free_loops


def _connected_pieces(d: PDDiagram) -> list[list[int]]:
    """Connected components of the 4-valent graph, as crossing index lists:
    each list ascending, the pieces in order of their lowest crossing.

    A stack walk over `partner` from each crossing not yet reached.  Node c
    holds the ends 4c, ..., 4c+3: crossing c for c < n, four boundary
    positions of a tangle past it.  The boundary nodes are joined to each
    other, so the boundary counts as one node, but only crossings are
    grouped."""
    far = [e >> 2 for e in d.partner]  # end -> the node at the far end of its arc
    n = len(d.crossings)
    nbrs = [far[e : e + 4] for e in range(0, len(far), 4)]
    for j in range(n, len(nbrs)):
        nbrs[j] += range(n, len(nbrs))
    piece_of = [-1] * len(nbrs)
    pieces: list[list[int]] = []
    for c0 in range(n):
        if piece_of[c0] < 0:
            k = piece_of[c0] = len(pieces)
            stack = [c0]
            while stack:
                for c in nbrs[stack.pop()]:
                    if piece_of[c] < 0:
                        piece_of[c] = k
                        stack.append(c)
            pieces.append([])
    for c in range(n):
        pieces[piece_of[c]].append(c)
    return pieces


def _expand(d: PDDiagram, memo: dict, loop, engine: Callable, recursion: Callable) -> dict:
    """The value of `d` as a vector {matching: coefficient} over a basis with
    one tangle per matching of its boundary positions, the tuple of its pairs
    (p, q), p < q, in order of p: the descending tangles for Q, the
    crossingless ones for the bracket.  A link's one matching is ().

    Split by Q(A u B) = (2x^-1 - 1) Q(A) Q(B) and <A u B> = delta <A><B>:
    `loop` per piece or free loop past the first times each connected piece's
    value, memoized on `piece.key()`.  A link piece is swept with the
    transitions of `engine`, on packed integers decoded once per piece
    (`_sweep`); a tangle (one piece, free loops split off) and a link piece
    wider than SWEEP_WIDTH go to `recursion(piece, memo)`.  The pieces are
    `d.parts` and the plan of each its `plan`, all kept, so Q and the
    bracket of one diagram plan each piece once."""
    parts = d.parts
    out = {(): loop ** (len(parts) + d.free_loops - 1)}
    for p in parts:
        key = p.key()
        value = memo.get(key)
        if value is None:
            steps = None if p.boundary else p.plan
            value = recursion(p, memo) if steps is None else _sweep(steps, engine)
            memo[key] = value
        out = {m: c * out[()] for m, c in value.items()}
    return out


def _faces(d: PDDiagram) -> tuple[int, list[int]]:
    """Faces of a link diagram, over all its pieces, as orbits of the left-turn walk.

    Returns (number of faces, face id per corner 4c+k), a corner being the
    region between slots k and k+1 of crossing c, numbered as its end in
    `partner`.  A connected piece with n crossings lies on the sphere exactly
    when it has n + 2 faces (Euler), so a code with any other count per piece
    raises MalformedDiagramError; so does a tangle, whose disk has no faces
    of that kind.
    """
    if d.boundary:
        raise MalformedDiagramError("a tangle has no face walk")
    partner = d.partner
    face = [-1] * len(partner)
    nfaces = 0
    for e0 in range(len(partner)):
        if face[e0] >= 0:
            continue
        # walk: leave a crossing by end e, turn left at the far end
        e = e0
        while face[e] < 0:
            face[e] = nfaces
            f = partner[e]
            e = f - 3 if f & 3 == 3 else f + 1
        nfaces += 1
    if nfaces != len(d.crossings) + 2 * len(d.pieces):
        raise MalformedDiagramError("PD code is not planar: no sphere diagram has it")
    return nfaces, face


def _admit(d: PDDiagram, max_crossings: float = inf, reduce: Callable = lambda d: d) -> PDDiagram:
    """`reduce(d)`, the diagram the engine expands, after the checks every
    invariant needs: a tangle, the empty link and a non-planar code (`d.faces`)
    raise MalformedDiagramError, and CrossingLimitError is raised when `d` and
    the pieces of `reduce(d)` with no sweep plan, which go to the exponential
    fallback, each have more than `max_crossings` crossings; tables are kept.
    A bound that is NaN or negative raises ValueError before any walk."""
    if not max_crossings >= 0:
        raise ValueError(f"the crossing bound {max_crossings} is not a number >= 0")
    if d.boundary:
        raise MalformedDiagramError("a tangle has no link invariants")
    if not (d.crossings or d.free_loops):
        raise MalformedDiagramError("the empty link has no invariants")
    d.faces
    swept = reduce(d)
    if len(d) > max_crossings:
        n = sum(len(p) for p in swept.parts if p.plan is None)
        if n > max_crossings:
            raise CrossingLimitError(f"{n} unplanned crossings exceed the bound {max_crossings}")
    return swept


# -- the frontier sweep ----------------------------------------------------

# The widest frontier the sweep keeps: (2k-1)!! descending and Catalan(k)
# crossingless matchings at width 2k, 105 and 14 at 8.  No link piece of
# qaltbench's corpora is wider; 15 of qa_scan's reach 8, for Q and the bracket.
SWEEP_WIDTH = 8

# The most crossings a call sends to the exponential fallback, on the pieces
# with no sweep plan.  On closed (s1 s2^-1 s3 s4^-1)^k, Q's switch chain takes
# 2.9 s at 16 crossings and 29 s at 20, the bracket's smoothing 42 ms at 20
# and 81 ms at 40 (2-core Xeon, Python 3.11, CPU time, one cold run each).
FALLBACK_MAX_CROSSINGS = 16

# The most step programs `_program` keeps, over Q and the bracket together,
# the least recently used going first.  A warm pass of qaltbench's qa_scan
# runs 143 of Q and 91 of the bracket, one of q_alt3 17 of Q.  The 320 seeded
# random 3- and 4-braid closures of 20-200 letters of the CI's "programs"
# step need 2027 distinct programs over 53268 steps; at this bound they
# compile 2517 times, and traced memory after the stream is 10.2 MB, against
# 22.1 MB unbounded and 4.5 MB with no programs kept (Python 3.11).
_PROGRAMS_MAX = 728


def _runs(mask: int) -> tuple[int, tuple[int, ...]]:
    """(r, starts) for a crossing whose slots j with bit j of `mask` set are
    on the frontier: their number r, and the slots s from which s, ..., s+r-1
    (mod 4) are those slots.  One start when r < 4 and they form one run, all
    four when r = 4, none when r = 0 or they do not."""
    on = [mask >> j & 1 for j in range(4)]
    r = sum(on)
    starts = [s for s in range(4) if on[s] and (r == 4 or not on[s - 1])]
    return r, tuple(s for s in starts if all(on[(s + j) % 4] for j in range(r)))


_RUNS = tuple(_runs(mask) for mask in range(16))


def _splice(points: list[int], i: int, r: int, new: list[int]) -> list[int]:
    """The circular list `points` with positions i, ..., i+r-1 (mod its
    length) replaced by `new`, which starts at position i, or at 0 when the
    run wraps."""
    return points[max(0, i + r - len(points)) : i] + new + points[i + r :]


def _sweep_steps(d: PDDiagram) -> list[tuple[int, tuple]] | None:
    """The steps that absorb the connected link diagram `d` into a disk, as
    (width, glue) arguments of a transition; None when the frontier would
    grow wider than SWEEP_WIDTH points or no crossing can be absorbed.  The
    next crossing is the first in PD order whose arcs to the disk meet its
    boundary, the frontier, in one run, in the reverse of its slot order; two
    adjacent frontier points with the same label (a kink) are capped at once.

    The search starts at the cursor `first`, the lowest crossing not yet
    absorbed, so the same crossing wins; it tests a run, the glue (i, r, s)
    of `_glued`, only from the starts `_RUNS` allows.  While the crossing at
    the cursor keeps meeting the frontier, the plan takes linear time.

    A run takes every slot of the crossing whose label is on the frontier, so
    the labels it exposes are new there.  While the frontier holds each
    label once, only exposed labels that repeat can make a pair to cap."""
    crossings = d.crossings
    n = len(crossings)
    frontier: list[int] = []  # arc labels on the disk's boundary, counterclockwise
    unique = True  # no label twice on the frontier
    absorbed = [False] * (n + 1)  # the False past the end stops the cursor at n
    first = 0
    steps = []
    while first < n:
        w = len(frontier)
        for x in range(first, n):
            if absorbed[x]:
                continue
            t = crossings[x]
            if not w:
                i = r = s = 0
                break
            on = (t[0] in frontier) + 2 * (t[1] in frontier) + 4 * (t[2] in frontier) + 8 * (t[3] in frontier)
            r, starts = _RUNS[on]
            for s in starts:
                i = frontier.index(t[(s + r - 1) % 4])
                k = 1
                while k < r and frontier[(i + k) % w] == t[(s + r - 1 - k) % 4]:
                    k += 1
                if k == r:
                    break
            else:
                continue
            break
        else:
            return None
        if w + 4 - 2 * r > SWEEP_WIDTH:
            return None
        steps.append((w, (i, r, s % 2)))
        exposed = (t + t)[s + r : s + 4]
        frontier[i : i + r] = exposed
        if i + r > w:
            del frontier[: i + r - w]  # the run's positions that wrapped to the front
        absorbed[x] = True
        first = absorbed.index(False, first)
        if unique and len(set(exposed)) == len(exposed):
            continue
        while True:
            w = len(frontier)
            i = next((i for i in range(w) if frontier[i] == frontier[(i + 1) % w]), None)
            if i is None:
                break
            steps.append((w, (i, 2, None)))
            frontier = _splice(frontier, i, 2, [])
        unique = len(set(frontier)) == len(frontier)
    return steps


def _sweep(steps: list[tuple[int, tuple]], engine: Callable) -> dict:
    """The vector of a swept link piece, in the basis convention of `_expand`:
    the state is that of the tangle in the disk, and a step maps each basis
    tangle to its glued value, `_transition(engine, width, matching, glue)`.

    The state runs on packed integers (`_packed_sweep`), one per entry, at
    x = X = 2^(8 nbytes), in the order of the sorted tuple of its live
    matching ids (`_MATCHINGS`).  Each step runs a program compiled once per
    (step, ids) from the width-free rows of the live ids: `_row(engine, step,
    id)` keeps every row for the process, and `_program`, an `lru_cache`,
    the _PROGRAMS_MAX programs of Q and the bracket used last.  A program is
    a flat list of ops, each one product by a small coefficient and one
    shift, whose first write to a target stores the product in place of
    adding it to 0.  A link piece ends in one entry, that of the matching
    (), which decodes exactly by `poly.unpack` once an l1 bound of it is
    below X/2 (`poly.nbytes_for`).

    The width is set before any value is computed, from the piece's chain of
    programs (`_step_programs`).  No entry's bound (`_bounds`) exceeds its
    program's gain times the largest bound before the step, so the product
    of the gains bounds the final entry, the empty disk's being 1.  When
    `nbytes_for` of that product is 4, the value pass runs at 4 bytes;
    otherwise a pass over small integers, `_bounds`, gives the final entry's
    own bound, and the value pass runs at `nbytes_for` of it.  Either way
    the width is `nbytes_for` of the final bound, and a piece takes one
    value pass.  No piece of qaltbench's corpora needs the bound pass.
    """
    programs = _step_programs(steps, engine)
    nbytes = nbytes_for(prod(gain for _, _, gain, _ in programs))
    if nbytes > 4:
        (bound,) = _bounds(programs).values()
        nbytes = nbytes_for(bound)
    low, state = _packed_sweep(programs, nbytes)
    (v,) = state.values()
    return {(): unpack(v, nbytes, low)}


def _step_programs(steps: list[tuple[int, tuple]], engine: Callable) -> list:
    """The programs of a sweep of `engine` along `steps`, one per step, each
    `_program(engine, step, ids)` from the live ids the one before it leaves,
    the empty disk's (0,) first."""
    chain = []
    ids = (0,)  # the empty disk, matching ()
    for step in steps:
        program = _program(engine, step, ids)
        chain.append(program)
        ids = program[1]
    return chain


def _bounds(programs: list) -> dict:
    """{id: bound} after the `_step_programs` chain `programs`: the bound of a
    new entry is the sum of |c| b over its ops, c the op's coefficient and b
    the bound of its source, so it is at least the entry's l1 norm, the
    empty disk's entry having bound 1.  Small integers only, with no value
    and no width."""
    ids, bounds = (0,), [1]
    for _, ids, _, ops in programs:
        bounds_in, bounds = bounds, [0] * len(ids)
        for s, t, c, _, _ in ops:
            bounds[t] += bounds_in[s] * abs(c)
    return dict(zip(ids, bounds))


def _packed_sweep(programs: list, nbytes: int):
    """The value pass of `_sweep` at X = 2^(8 nbytes) over the `_step_programs`
    chain `programs`: (low, {id: value}), the entry of the matching
    `_MATCHINGS[id]` being x^low times the polynomial whose value at X is
    `value`, exact once X/2 exceeds the entry's `_bounds`.

    The state is one list of values in the order of the sorted tuple of its
    live matching ids, and each step runs its program's flat op list: per
    op, one product of a source value by a small coefficient and one shift,
    added into its target, or stored there by the target's first op, so no
    sum starts from 0 and copies a big int.  No entry is dropped, not even
    one whose value is 0, which may be a nonzero polynomial that vanishes at
    X.  Zero-valued entries are few: 12 of the 1447 new entries over one
    q_alt3 pass, 547 of 13661 over qa_scan.
    """
    b = 8 * nbytes
    low = 0
    ids, values = (0,), [1]  # the empty disk, matching ()
    for shift, ids, _, ops in programs:
        values_in, values = values, [0] * len(ids)
        for s, t, c, k, add in ops:
            p = values_in[s] * c
            if k:
                p <<= b * k
            if add:
                values[t] += p
            else:
                values[t] = p
        low += shift
    return low, dict(zip(ids, values))


@lru_cache(maxsize=_PROGRAMS_MAX)
def _program(engine: Callable, step: tuple, ids: tuple) -> tuple[int, tuple, int, tuple]:
    """(shift, out, gain, ops): one step of a sweep of `engine` from the state
    whose live matching ids are the sorted tuple `ids`, compiled from their
    rows `_row(engine, step, id)`.

    `shift` is the lowest exponent over the rows of `ids`, `out` the sorted
    tuple of the ids the rows reach, and `ops` one (source, target, coeff,
    digits, add) per term of each row, the source and the target being
    positions in `ids` and in `out`.  The digits count both the term's
    height in its row and the row's lowest exponent above `shift`, so a pass
    of any width shifts each product once; `add` is False on the first op
    that writes a target.  `gain` is the largest sum of |coeff| over the ops
    of one target, so no new entry's l1 norm exceeds gain times the largest
    old one's.  Nothing in a program depends on the width."""
    rows = [_row(engine, step, i) for i in ids]
    shift = min(lo for lo, _ in rows)
    out = sorted({j for _, entries in rows for j, _, _, _ in entries})
    target = {j: t for t, j in enumerate(out)}
    gains = [0] * len(out)  # a row's coefficients are nonzero: a target not yet written has gain 0
    ops = []
    for s, (lo, entries) in enumerate(rows):
        for j, c, a, k in entries:
            t = target[j]
            ops.append((s, t, c, k + lo - shift, gains[t] > 0))
            gains[t] += a
    return shift, tuple(out), max(gains), tuple(ops)


def _basis(width: int, matching) -> tuple[list[Crossing], list[int]]:
    """Crossings and boundary of the descending tangle of `matching` on
    `width` points; a noncrossing matching gives a crossingless tangle.

    The points sit at 0, ..., width-1 on the boundary line of the upper
    half-plane, which runs counterclockwise, and each pair (p, q) is the
    semicircle over [p, q], walked from p.  The semicircles over [p, q] and
    [r, t], p < r < q < t, meet once, at abscissa x = (rt - pq)/(r + t - p - q),
    where the first passes over; counterclockwise there come the under arc
    in, the over arc out, the under arc out and the over arc in.  Ordered by
    the exact x, no two crossings on one chord tie for 8 points or fewer.
    """
    on: dict = {pair: [] for pair in matching}  # pair -> (x, crossing, slots)
    k = 0
    for (p, q), (r, t) in combinations(matching, 2):  # p < r
        if r < q < t:
            x = Fraction(r * t - p * q, r + t - p - q)
            on[(p, q)].append((x, k, (3, 1)))  # over: enters at slot 3, leaves at 1
            on[(r, t)].append((x, k, (0, 2)))  # under: enters at slot 0, leaves at 2
            k += 1
    crossings = [[0] * 4 for _ in range(k)]
    boundary = [0] * width
    label = count(1)
    for (p, q), meets in on.items():
        arc = boundary[p] = next(label)
        for _x, k, (enter, leave) in sorted(meets):
            crossings[k][enter] = arc
            arc = crossings[k][leave] = next(label)
        boundary[q] = arc
    return [tuple(t) for t in crossings], boundary


def _glued(width: int, matching, glue) -> PDDiagram:
    """The basis tangle of `matching` on `width` points glued to one crossing
    or one cap, with the new frontier as its boundary.  `glue` (i, r, s): a
    crossing whose slots s, ..., s+r-1 meet positions i+r-1, ..., i (mod
    width), its other slots becoming new positions in their place, in slot
    order.  (i, 2, None): a cap joining positions i and i+1 (mod width)."""
    crossings, boundary = _basis(width, matching)
    i, r, s = glue
    run = [boundary[(i + k) % width] for k in range(r)]
    if s is None:
        exposed, fusions = [], [tuple(run)]
    else:
        fresh = max(boundary, default=0) + 1  # the last chord ends on the largest label
        exposed = list(range(fresh, fresh + 4 - r))
        t = [0] * 4
        for j in range(4):
            t[(s + j) % 4] = run[r - 1 - j] if j < r else exposed[j - r]
        crossings.append(tuple(t))
        fusions = []
    return PDDiagram(*_relabel(crossings, fusions, 0, _splice(boundary, i, r, exposed)))


def _transition(engine: Callable, width: int, matching, glue) -> dict:
    """The vector of `_glued(width, matching, glue)` by `engine`; the sweep
    computes each once, packed by `_row`."""
    return engine(_glued(width, matching, glue), {})


def _matchings(points: tuple) -> list:
    """Every perfect matching of `points`, as pairs (p, q), p < q, in order of p."""
    if not points:
        return [()]
    p, rest = points[0], points[1:]
    return [((p, q),) + m for k, q in enumerate(rest) for m in _matchings(rest[:k] + rest[k + 1 :])]


# Every matching of 0, 2, ..., SWEEP_WIDTH points, a matching's id being its
# index, () id 0, and the id of each: 1 + 1 + 3 + 15 + 105 = 125 matchings,
# fixed at import and shared by Q and the bracket, whose crossingless
# matchings are among Q's.  The planner keeps every frontier within
# SWEEP_WIDTH points, so each matching a transition returns has an id.
_MATCHINGS = tuple(m for w in range(0, SWEEP_WIDTH + 1, 2) for m in _matchings(tuple(range(w))))
_IDS = {m: i for i, m in enumerate(_MATCHINGS)}


@lru_cache(maxsize=None)
def _row(engine: Callable, step: tuple, i: int) -> tuple[int, tuple]:
    """`_pack_row` of the transition of `engine` that glues the basis tangle
    of `_MATCHINGS[i]` by the sweep step (width, glue)."""
    width, glue = step
    return _pack_row(_transition(engine, width, _MATCHINGS[i], glue))


def _pack_row(vec: dict) -> tuple[int, tuple]:
    """(low, ((id, coeff, |coeff|, k), ...)) for a transition vector: its
    lowest exponent and, per term coeff x^e of the entry of a matching, the
    id of that matching and the digits k = e - low by which the term lies
    above `low`.  No entry depends on the width, and a product with a term
    is a multiply by a small integer and a shift."""
    low = min((p.low_degree() for p in vec.values()), default=0)
    return low, tuple((_IDS[m], v, abs(v), e - low) for m, p in vec.items() for e, v in p.items())


# Two walks follow strands, and they restart differently once a component
# closes.  `_walk_code` restarts at the first-discovered crossing with an
# unwalked pass, so the code does not depend on crossing labels.
# `_strands` restarts at the lowest crossing index, because the default
# orientation of `orient` and the component numbering of its `flips`
# depend on that order.


def _strands(d: PDDiagram) -> list[list[tuple[int, int]]]:
    """Each arc of a tangle, then each closed component of `d`, as its list
    of passes (crossing, entry slot).

    An arc is walked from its lower boundary position p to its upper one q,
    the arcs in the order of p, and its list starts with (-1, p) and ends
    with (-1, q).  A closed component starts at the lowest crossing that
    still has an unwalked pass, on the over pass (slot 1) before the under
    pass (slot 0).
    """
    partner = d.partner
    n4 = 4 * len(d.crossings)
    walked = [False] * n4  # per end; a pass marks the end it enters and leaves by
    strands = []
    upper: set[int] = set()
    for p in range(len(d.boundary)):
        if p in upper:
            continue
        strand = [(-1, p)]
        e = partner[n4 + p]
        while e < n4:
            walked[e] = walked[e ^ 2] = True
            strand.append((e >> 2, e & 3))
            e = partner[e ^ 2]
        strand.append((-1, e - n4))
        upper.add(e - n4)
        strands.append(strand)
    for e0 in range(0, n4, 4):
        for e in (e0 + 1, e0):
            strand = []
            while not walked[e]:
                walked[e] = walked[e ^ 2] = True
                strand.append((e >> 2, e & 3))
                e = partner[e ^ 2]
            if strand:
                strands.append(strand)
    return strands


def _walk_code(d: PDDiagram, start: tuple[int, int]):
    """Encode the walk of one connected piece from the entry end `start`
    as a relabeling-invariant tuple.

    A 0 marks each restart after a component closes, so "continues to
    crossing X" and "closes, then restarts at X" encode differently.
    """
    partner = d.partner
    disc: dict[int, tuple[int, int]] = {}  # crossing -> (id, frame slot)
    walked: set[tuple[int, int]] = set()  # (crossing, pass parity)
    out = []
    c, s = start
    while True:
        while (c, s % 2) not in walked:
            walked.add((c, s % 2))
            if c not in disc:
                disc[c] = (len(disc), s)
                out.append(2 + s % 2)
            else:
                cid, fs = disc[c]
                out.append(-(cid * 4 + (s - fs) % 4) - 1)
            c, s = divmod(partner[4 * c + (s ^ 2)], 4)
        restart = next(
            ((cc, p) for cc in disc for p in (1, 0) if (cc, p) not in walked), None
        )
        if restart is None:
            return tuple(out)
        out.append(0)
        c, s = restart


# -- parsing / rendering ----------------------------------------------

_TERM_RE = re.compile(r"([XO])\(([^()]*)\)")
_PD_RE = re.compile(rf"[;,\s]*(?:{_TERM_RE.pattern}[;,\s]*)+")


def parse_pd(text: str) -> PDDiagram:
    """Parse `X(a,b,c,d)` terms (and optional `O(n)` free-loop terms)."""
    if not _PD_RE.fullmatch(text):
        raise PDParseError(f"not a list of X(...)/O(...) terms: {text!r}")
    crossings = []
    loops = 0
    for kind, body in _TERM_RE.findall(text):
        try:
            nums = [int(x) for x in body.split(",")] if body.strip() else []
        except ValueError as e:
            raise PDParseError(f"bad integer in {kind}({body})") from e
        if kind == "X":
            if len(nums) != 4:
                raise PDParseError(f"X-term needs 4 arcs, got {kind}({body})")
            crossings.append(tuple(nums))
        else:
            if len(nums) != 1 or nums[0] < 0:
                raise PDParseError(f"O-term needs one count >= 0, got O({body})")
            loops += nums[0]
    return PDDiagram(crossings, loops)


def render_pd(d: PDDiagram) -> str:
    """PD text of a link; a tangle has no PD text and raises MalformedDiagramError."""
    if d.boundary:
        raise MalformedDiagramError("a tangle has no PD text")
    parts = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    if d.free_loops:
        parts.append(f"O({d.free_loops})")
    return ";".join(parts) if parts else "O(0)"


# -- component counting and the relabeling helper --------------------


def _find(parent: dict[int, int], x: int) -> int:
    """Root of `x` in a union-find forest kept as a dict (absent = root)."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def num_components(d: PDDiagram) -> int:
    """Link components: the strands of `d` plus its free loops."""
    return len(_strands(d)) + d.free_loops


def _relabel(
    kept: list[Crossing],
    fusions: Iterable[tuple[int, int]],
    loops: int,
    boundary: Sequence[int] = (),
) -> tuple[list[Crossing], int, tuple[int, ...]]:
    """Kept crossings after arc fusions, the new free-loop count and the
    boundary relabeled.

    Fusing two ends of the same (possibly merged) arc closes a circle and
    increments the free-loop count; arc labels are then renumbered densely
    in order of first appearance, crossings before the boundary.  The
    tuples are left as the fusions make them: `PDDiagram` normalizes each
    one, once.
    """
    parent: dict[int, int] = {}
    for x, y in fusions:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            loops += 1
        else:
            parent[ry] = rx
    root = {a: _find(parent, a) for a in parent}
    relabel: dict[int, int] = {}
    new = []
    for t in kept:
        out = []
        for a in t:
            r = root.get(a, a)
            label = relabel.get(r)
            if label is None:
                label = relabel[r] = len(relabel) + 1
            out.append(label)
        new.append(tuple(out))
    boundary = tuple(relabel.setdefault(root.get(a, a), len(relabel) + 1) for a in boundary)
    return new, loops, boundary


# -- structural moves ---------------------------------------------------


def smooth(d: PDDiagram, crossing_index: int, kind: SmoothingKind) -> PDDiagram:
    """Replace one crossing by a crossingless connection; a `kind` that is
    not a SmoothingKind raises TypeError."""
    if not 0 <= crossing_index < len(d.crossings):
        raise MalformedDiagramError(f"crossing index {crossing_index} out of range")
    a, b, c, e = d.crossings[crossing_index]
    if kind is SmoothingKind.A:
        pairs = [(a, b), (c, e)]
    elif kind is SmoothingKind.B:
        pairs = [(a, e), (b, c)]
    else:
        raise TypeError(f"smoothing kind must be SmoothingKind.A or .B, got {kind!r}")
    kept = [t for i, t in enumerate(d.crossings) if i != crossing_index]
    return PDDiagram(*_relabel(kept, pairs, d.free_loops, d.boundary))


def switch(d: PDDiagram, crossing_index: int) -> PDDiagram:
    """Exchange over/under at one crossing (cyclic tuple rotation by one)."""
    if not 0 <= crossing_index < len(d.crossings):
        raise MalformedDiagramError(f"crossing index {crossing_index} out of range")
    new = list(d.crossings)
    a, b, c, e = new[crossing_index]
    new[crossing_index] = (b, c, e, a)
    return PDDiagram(new, d.free_loops, d.boundary)


def mirror(d: PDDiagram) -> PDDiagram:
    """Exchange over/under at every crossing."""
    return PDDiagram([(b, c, e, a) for a, b, c, e in d.crossings], d.free_loops, d.boundary)


def _kinked(partner: list[int], c: int) -> bool:
    """An arc joins two adjacent slots of crossing c: a Reidemeister-I kink.
    Every pair of adjacent slots holds one even slot, 0 or 2, and one odd."""
    e = 4 * c
    return partner[e] in (e + 1, e + 3) or partner[e + 2] in (e + 1, e + 3)


def _clasp(partner: list[int], n: int, c1: int) -> int | None:
    """c2 of the first clasp, in the stored slot order of c1, whose lower
    crossing is c1: an arc over at c1 and at some crossing c2 > c1, and one
    under at both; None if there is none.  A boundary end, numbered from 4n,
    never matches."""
    e = 4 * c1
    for s in (1, 3):
        f = partner[e + s]
        c2 = f >> 2
        if c1 < c2 < n and f & 1:
            for u in (0, 2):
                g = partner[e + u]
                if g >> 2 == c2 and not g & 1:
                    return c2
    return None


def simplify(d: PDDiagram) -> PDDiagram:
    """Remove Reidemeister-I kinks and Reidemeister-II bigons until none remain.

    The R2 step removes any two crossings joined by an over-over and an
    under-under arc, also when the two arcs bound no face: such a clasp is a
    full twist around a 1-1 summand, and removing it is an isotopy that
    changes the writhe by +-2.  So the output keeps the link type, Q and det,
    but not the framing: its Kauffman bracket is the input's times a unit
    +-A^k, which keeps |<D>| at A^4 = -1 and the A-span of <D>, but the
    bracket itself and the writhe must not be taken from it.  `d` itself is
    returned when no move applies.  Either way the diagram returned is
    marked reduced, and a later call on it returns it at once.

    Each move removes the kink at the lowest crossing; if there is none, the
    clasp with the lowest lower crossing c1, its over arc first in c1's
    stored slot order.  The kept crossings keep their stored tuples until the
    end, so the output is that of the plain loop that, after each move,
    relabels the arcs densely by first appearance and rescans from crossing
    0, and normalizes the tuples once, at the end.

    The first scan reads the end table `partner` and asks `_clasp` only of a
    crossing with an over end at an odd slot of a higher one.  Once a move
    applies, a copy of it is the only arc table, with min-heaps of the
    crossings that may hold a kink and of those that may be the lower
    crossing of a clasp.  A move marks its crossings removed and joins each
    live end next to them to the live end on the far side of the strand
    through them, then pushes the crossings of those ends.  One `_relabel`
    call at the end fuses the two strands through each removed crossing.  A
    move costs O(log n), so m moves on n crossings take about O(n + m log n)
    time, where rescanning took O(m n).
    """
    if d._reduced:
        return d
    n = len(d.crossings)
    n4 = 4 * n
    partner = d.partner
    kinks, clasps = [], []
    for e, p0, p1, p2, p3 in zip(range(0, n4, 4), *(partner[s:n4:4] for s in range(4))):
        if p0 - e in (1, 3) or p2 - e in (1, 3):
            kinks.append(e >> 2)
        if (e + 3 < p1 < n4 and p1 & 1 or e + 3 < p3 < n4 and p3 & 1) and _clasp(partner, n, e >> 2) is not None:
            clasps.append(e >> 2)
    if not (kinks or clasps):
        d._reduced = True
        return d
    partner = list(partner)  # the moves join ends in this copy only
    alive = [True] * n
    while True:
        while kinks and not (alive[kinks[0]] and _kinked(partner, kinks[0])):
            heappop(kinks)
        if kinks:
            removed = (kinks[0],)
        else:
            while clasps and not (alive[clasps[0]] and (c2 := _clasp(partner, n, clasps[0])) is not None):
                heappop(clasps)
            if not clasps:
                break
            removed = (clasps[0], c2)
        for c in removed:
            alive[c] = False
        touched = set()
        for c in removed:
            for e in range(4 * c, 4 * c + 4):
                x = partner[e]
                if x < n4 and not alive[x >> 2] or partner[x] != e:
                    continue  # x is removed, or was joined from its far side
                f = partner[e ^ 2]  # follow the strand through the removed crossings
                while f < n4 and not alive[f >> 2]:
                    f = partner[f ^ 2]
                partner[x] = f
                partner[f] = x
                touched.update(y >> 2 for y in (x, f) if y < n4)
        for c in touched:
            if _kinked(partner, c):
                heappush(kinks, c)
            if _clasp(partner, n, c) is not None:
                heappush(clasps, c)
    kept = [t for t, live in zip(d.crossings, alive) if live]
    through = [(t[k], t[k + 2]) for t, live in zip(d.crossings, alive) if not live for k in (0, 1)]
    out = PDDiagram(*_relabel(kept, through, d.free_loops, d.boundary))
    out._reduced = True
    return out


def connected_sum(d1: PDDiagram, d2: PDDiagram, arc1: int, arc2: int) -> PDDiagram:
    """Cut arc1 and arc2 and cross-join the four ends; the arc of an operand
    without crossings, one of its free loops, is not checked."""
    if d1.boundary or d2.boundary:
        raise MalformedDiagramError("cannot sum a tangle")
    if not (d1.crossings or d1.free_loops) or not (d2.crossings or d2.free_loops):
        raise MalformedDiagramError("cannot sum with the empty diagram")
    labels1, labels2 = (list(chain.from_iterable(d.crossings)) for d in (d1, d2))  # per end 4c+s
    for labels, arc, which in ((labels1, arc1, "first"), (labels2, arc2, "second")):
        if labels and arc not in labels:
            raise MalformedDiagramError(f"arc {arc} not in {which} diagram")
    if not d2.crossings:
        return PDDiagram(d1.crossings, d1.free_loops + d2.free_loops - 1)
    if not d1.crossings:
        return connected_sum(d2, d1, arc2, arc1)

    # shift d2 labels into a fresh range; the second end of each cut arc
    # gets a fresh label
    shift = max(labels1) - min(labels2) + 1
    fresh1 = shift + max(labels2) + 1
    fresh2 = fresh1 + 1
    part1 = [list(t) for t in d1.crossings]
    part2 = [[a + shift for a in t] for t in d2.crossings]
    for part, d, labels, arc, fresh in ((part1, d1, labels1, arc1, fresh1), (part2, d2, labels2, arc2, fresh2)):
        c, s = divmod(d.partner[labels.index(arc)], 4)  # the arc's second end
        part[c][s] = fresh
    fusions = [(arc1, arc2 + shift), (fresh1, fresh2)]
    return PDDiagram(*_relabel(part1 + part2, fusions, d1.free_loops + d2.free_loops))


# -- generators ---------------------------------------------------------


def _braid(
    letters: Iterable[int], strands: int
) -> tuple[list[Crossing], list[int], list[int]]:
    """Crossings of the braid word `letters` on `strands` strands, with the arc
    labels at its top and bottom ends, listed by position (0-based).

    The strands run down, all oriented the same way; positive sigma_i crosses
    strand i+1 over strand i.
    """
    top = list(range(1, strands + 1))
    bottom = list(top)
    nxt = strands + 1
    crossings: list[Crossing] = []
    for g in letters:
        i = abs(g)
        u, v = bottom[i - 1], bottom[i]  # NW, NE incoming
        x, y = nxt, nxt + 1  # SW, SE outgoing
        nxt += 2
        if g > 0:
            crossings.append((u, x, y, v))  # under runs NW-SE
        else:
            crossings.append((x, y, v, u))  # under runs NE-SW
        bottom[i - 1], bottom[i] = x, y
    return crossings, top, bottom


def close_braid(word, strands: int | None = None) -> PDDiagram:
    """Standard closure of a braid word.

    `word` is a sequence of nonzero signed generator indices (or a
    :class:`~qalt.braid3.BraidWord`); positive sigma_i crosses strand i+1
    over strand i, all strands oriented the same way.
    """
    if strands is None:
        strands = getattr(word, "strands", None)
        if strands is None:
            raise MalformedDiagramError("strand count required")
    try:
        letters = [index(g) for g in getattr(word, "letters", word)]
        strands = index(strands)
    except TypeError as e:
        raise MalformedDiagramError(f"letters and the strand count must be integers: {e}") from e
    if strands < 1:
        raise MalformedDiagramError("need at least one strand")
    for g in letters:
        if g == 0 or abs(g) >= strands:
            raise MalformedDiagramError(
                f"generator {g} out of range for {strands} strands"
            )

    crossings, top, bottom = _braid(letters, strands)
    return PDDiagram(*_relabel(crossings, list(zip(top, bottom)), 0))


def generate_pretzel(signs: Sequence[int]) -> PDDiagram:
    """Standard pretzel diagram: vertical twist regions chained top and bottom.

    Entry p_i contributes |p_i| crossings of handedness sign(p_i); the i-th
    region's right strand joins the (i+1)-th region's left strand above and
    below, cyclically.  The regions are the braid word
    sigma_1^p_1 sigma_3^p_2 ... sigma_(2k-1)^p_k on 2k strands.  Each entry
    must be an integer (`operator.index`), as in `close_braid`; anything else
    raises MalformedDiagramError.
    """
    try:
        entries = [index(p) for p in signs]
    except TypeError as e:
        raise MalformedDiagramError(f"pretzel entries must be integers: {e}") from e
    if not entries:
        raise MalformedDiagramError("pretzel needs at least one twist region")
    if any(p == 0 for p in entries):
        raise MalformedDiagramError("pretzel entries must be nonzero")
    if len(entries) < 2:
        raise MalformedDiagramError("pretzel needs at least 2 twist regions")

    n = 2 * len(entries)  # strands
    word = [(2 * i + 1) * (p // abs(p)) for i, p in enumerate(entries) for _ in range(abs(p))]
    crossings, top, bottom = _braid(word, n)
    # a region's right strand, at odd position q, meets the next region's left one
    fusions = [(e[q], e[(q + 1) % n]) for q in range(1, n, 2) for e in (top, bottom)]
    return PDDiagram(*_relabel(crossings, fusions, 0))


@lru_cache(maxsize=None)
def trefoil() -> PDDiagram:
    """The standard 3-crossing trefoil diagram."""
    return parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")


@lru_cache(maxsize=None)
def figure_eight() -> PDDiagram:
    """The standard 4-crossing figure-eight diagram."""
    return parse_pd("X(4,2,5,1);X(8,6,1,5);X(6,3,7,4);X(2,7,3,8)")


@lru_cache(maxsize=None)
def hopf_link() -> PDDiagram:
    return parse_pd("X(1,4,2,3);X(3,2,4,1)")


def unknot() -> PDDiagram:
    return PDDiagram((), 1)


def unlink(k: int) -> PDDiagram:
    return PDDiagram((), k)
