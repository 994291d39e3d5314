"""Planar diagram codes of unoriented links, and the moves the skein engines need.

A crossing is a 4-tuple (a, b, c, d) of arc identifiers listed
counterclockwise, with the understrand occupying positions 0 and 2 (so the
strand a--c passes under b--d).  Crossingless unknotted components are
tracked as a bare count, since smoothing routinely produces them.

Smoothings carry neutral labels: kind A joins a-b and c-d, kind B joins
a-d and b-c.  At any crossing one of the two merges link components and the
other splits one.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import MalformedDiagramError, PDParseError

Crossing = tuple[int, int, int, int]


def _normalize(t: Crossing) -> Crossing:
    if len(t) != 4:
        raise MalformedDiagramError(f"crossing {t} is not a 4-tuple")
    rot = (t[2], t[3], t[0], t[1])
    return t if t <= rot else rot


class SmoothingKind(Enum):
    A = "A"  # join a-b and c-d
    B = "B"  # join a-d and b-c


class PDDiagram:
    """Immutable planar diagram: crossing tuples plus a free-loop count."""

    __slots__ = ("crossings", "free_loops", "_ends", "_canon", "_ncomp")

    def __init__(self, crossings: Iterable[Sequence[int]], free_loops: int = 0):
        # rotating a tuple by two is the same crossing; store the smaller form
        self.crossings: tuple[Crossing, ...] = tuple(
            _normalize(tuple(int(a) for a in t)) for t in crossings
        )
        self.free_loops = int(free_loops)
        if self.free_loops < 0:
            raise MalformedDiagramError("negative free loop count")
        counts: dict[int, int] = {}
        for t in self.crossings:
            for a in t:
                counts[a] = counts.get(a, 0) + 1
        bad = sorted(a for a, n in counts.items() if n != 2)
        if bad:
            raise MalformedDiagramError(
                f"arc identifiers {bad} do not occur exactly twice"
            )
        self._ends: dict[int, list[tuple[int, int]]] | None = None
        self._canon = None
        self._ncomp: int | None = None

    # -- basic structure ---------------------------------------------

    @property
    def ends(self) -> dict[int, list[tuple[int, int]]]:
        """arc -> the two (crossing index, slot) positions where it ends."""
        if self._ends is None:
            ends: dict[int, list[tuple[int, int]]] = {}
            for i, t in enumerate(self.crossings):
                for s, a in enumerate(t):
                    ends.setdefault(a, []).append((i, s))
            self._ends = ends
        return self._ends

    def __len__(self) -> int:
        return len(self.crossings)

    def key(self) -> tuple[tuple[Crossing, ...], int]:
        """(crossings, free loops): equal exactly when the diagrams are equal.

        The skein engines memoize on this rather than on the diagram itself,
        so a memo keeps no diagram's `ends` table alive.
        """
        return self.crossings, self.free_loops

    def __eq__(self, other):
        if not isinstance(other, PDDiagram):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PDDiagram({render_pd(self)!r})"

    def next_end(self, crossing: int, slot: int) -> tuple[int, int]:
        """Follow the strand through a crossing: entry (c, s) -> next entry."""
        exit_slot = (slot + 2) % 4
        arc = self.crossings[crossing][exit_slot]
        e1, e2 = self.ends[arc]
        return e2 if e1 == (crossing, exit_slot) else e1

    # -- canonical codes ------------------------------------------------

    def canonical_code(self):
        """Label-invariant code of the diagram (over/under aware).

        Lexicographically minimal walk encoding per connected piece, pieces
        sorted; equal codes mean equal diagrams up to arc/crossing
        relabeling and tuple rotation by two.
        """
        if self._canon is None:
            pieces = _connected_pieces(self)
            codes = sorted(_min_walk_code(self, piece) for piece in pieces)
            self._canon = (tuple(codes), self.free_loops)
        return self._canon


def _connected_pieces(d: PDDiagram) -> list[list[int]]:
    """Connected components of the 4-valent graph, as crossing index lists."""
    n = len(d.crossings)
    seen = [False] * n
    pieces = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        piece = []
        while stack:
            c = stack.pop()
            piece.append(c)
            for s in range(4):
                arc = d.crossings[c][s]
                for (c2, _s2) in d.ends[arc]:
                    if not seen[c2]:
                        seen[c2] = True
                        stack.append(c2)
        pieces.append(sorted(piece))
    return pieces


def _split_pieces(d: PDDiagram) -> list[PDDiagram]:
    """The connected pieces of `d` as diagrams without free loops; `[d]`
    itself when `d` is connected and has no free loops."""
    pieces = _connected_pieces(d)
    if len(pieces) == 1 and not d.free_loops:
        return [d]
    return [PDDiagram([d.crossings[i] for i in piece], 0) for piece in pieces]


def _faces(d: PDDiagram):
    """Faces of the diagram, over all its pieces, as orbits of the left-turn walk.

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


def _check_planar(d: PDDiagram) -> None:
    """Reject a PD code that no diagram on the sphere realizes.

    A connected piece with n crossings is planar exactly when it has n + 2
    faces (Euler), so a planar diagram has n + 2 faces per piece.
    """
    nfaces, _ = _faces(d)
    if nfaces != len(d.crossings) + 2 * len(_connected_pieces(d)):
        raise MalformedDiagramError("PD code is not planar: no sphere diagram has it")


def _walk_passes(d: PDDiagram, piece: list[int], start: tuple[int, int]):
    """All strand passes of one connected piece, starting from an entry end.

    Yields (crossing, entry_slot).  When a link component closes, the walk
    resumes at the earliest-discovered crossing with an unvisited pass, so
    the continuation is independent of input labels.
    """
    visited: dict[int, set[int]] = {c: set() for c in piece}  # pass parities
    order: list[int] = []  # crossings in discovery order

    def take(c, s):
        visited[c].add(s % 2)
        if c not in order_set:
            order_set.add(c)
            order.append(c)

    order_set: set[int] = set()
    total = 2 * len(piece)
    done = 0
    c, s = start
    comp_start = (c, s)
    while done < total:
        take(c, s)
        yield c, s
        done += 1
        c2, s2 = d.next_end(c, s)
        if (c2, s2) == comp_start:
            # component closed; find next unvisited pass
            nxt = None
            for cc in order:
                free = {0, 1} - visited[cc]
                if free:
                    p = 1 if 1 in free else 0
                    nxt = (cc, p)
                    break
            if nxt is None:
                if done < total:  # pragma: no cover - piece is connected
                    raise AssertionError("walk exhausted before covering piece")
                return
            c, s = nxt
            comp_start = (c, s)
        else:
            if s2 % 2 in visited.get(c2, set()):
                # re-entering a visited pass means the component closed in a
                # way not detected above; cannot happen on valid diagrams
                raise AssertionError("inconsistent strand walk")
            c, s = c2, s2


def _walk_code(d: PDDiagram, piece: list[int], start: tuple[int, int]):
    """Encode the walk from `start` as a relabeling-invariant tuple.

    A 0 marks each restart after a component closes, so "continues to
    crossing X" and "closes, then restarts at X" encode differently.
    """
    disc: dict[int, tuple[int, int]] = {}  # crossing -> (id, frame slot)
    out = []
    prev = None
    for c, s in _walk_passes(d, piece, start):
        if prev is not None and d.next_end(*prev) != (c, s):
            out.append(0)
        prev = (c, s)
        if c not in disc:
            disc[c] = (len(disc), s)
            out.append(2 + (s % 2))
        else:
            cid, fs = disc[c]
            out.append(-(cid * 4 + (s - fs) % 4) - 1)
    return tuple(out)


def _min_walk_code(d: PDDiagram, piece: list[int]):
    return min(_walk_code(d, piece, (c, s)) for c in piece for s in range(4))


# -- parsing / rendering ----------------------------------------------

_TERM_RE = re.compile(r"([XO])\(([^()]*)\)")


def parse_pd(text: str) -> PDDiagram:
    """Parse `X(a,b,c,d)` terms (and optional `O(n)` free-loop terms)."""
    stripped = re.sub(r"[;,\s]", "", re.sub(r"\([^()]*\)", "", text))
    if stripped and not re.fullmatch(r"[XO]*", stripped):
        raise PDParseError(f"unexpected tokens in PD text: {text!r}")
    crossings = []
    loops = 0
    seen_any = False
    for kind, body in _TERM_RE.findall(text):
        seen_any = True
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
    if not seen_any:
        raise PDParseError(f"no X(...)/O(...) terms in {text!r}")
    return PDDiagram(crossings, loops)


def render_pd(d: PDDiagram) -> str:
    parts = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    if d.free_loops:
        parts.append(f"O({d.free_loops})")
    return ";".join(parts) if parts else "O(0)"


# -- component counting ------------------------------------------------


def _find(parent: dict[int, int], x: int) -> int:
    """Root of `x` in a union-find forest kept as a dict (absent = root)."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def num_components(d: PDDiagram) -> int:
    """Link components: arcs a-c and b-d are the same strand at each crossing."""
    if d._ncomp is None:
        parent: dict[int, int] = {}
        for a, b, c, e in d.crossings:
            for x, y in ((a, c), (b, e)):
                rx, ry = _find(parent, x), _find(parent, y)
                if rx != ry:
                    parent[ry] = rx
        roots = {_find(parent, a) for a in d.ends}
        d._ncomp = len(roots) + d.free_loops
    return d._ncomp


# -- the rebuild helper -------------------------------------------------


def _rebuild(kept: list[Crossing], fusions: list[tuple[int, int]], loops: int) -> PDDiagram:
    """New diagram from kept crossings plus arc fusions.

    Fusing two ends of the same (possibly merged) arc closes a circle and
    increments the free-loop count; arc labels are then renumbered densely.
    """
    parent: dict[int, int] = {}
    for x, y in fusions:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            loops += 1
        else:
            parent[ry] = rx

    relabel: dict[int, int] = {}
    new = []
    for t in kept:
        out = []
        for a in t:
            r = _find(parent, a)
            if r not in relabel:
                relabel[r] = len(relabel) + 1
            out.append(relabel[r])
        new.append(tuple(out))
    return PDDiagram(new, loops)


# -- structural moves ---------------------------------------------------


def smooth(d: PDDiagram, crossing_index: int, kind: SmoothingKind) -> PDDiagram:
    """Replace one crossing by a crossingless connection."""
    if not 0 <= crossing_index < len(d.crossings):
        raise MalformedDiagramError(f"crossing index {crossing_index} out of range")
    a, b, c, e = d.crossings[crossing_index]
    pairs = [(a, b), (c, e)] if kind is SmoothingKind.A else [(a, e), (b, c)]
    kept = [t for i, t in enumerate(d.crossings) if i != crossing_index]
    return _rebuild(kept, pairs, d.free_loops)


def switch(d: PDDiagram, crossing_index: int) -> PDDiagram:
    """Exchange over/under at one crossing (cyclic tuple rotation by one)."""
    if not 0 <= crossing_index < len(d.crossings):
        raise MalformedDiagramError(f"crossing index {crossing_index} out of range")
    new = list(d.crossings)
    a, b, c, e = new[crossing_index]
    new[crossing_index] = (b, c, e, a)
    return PDDiagram(new, d.free_loops)


def mirror(d: PDDiagram) -> PDDiagram:
    """Exchange over/under at every crossing."""
    return PDDiagram(
        [(b, c, e, a) for a, b, c, e in d.crossings], d.free_loops
    )


def _find_r1(d: PDDiagram):
    for i, t in enumerate(d.crossings):
        for s in range(4):
            if t[s] == t[(s + 1) % 4]:
                return i, s
    return None


def _find_r2(d: PDDiagram):
    # two distinct crossings joined by an arc that is over at both ends and
    # another that is under at both ends
    for arc, ((c1, s1), (c2, s2)) in d.ends.items():
        if c1 == c2 or s1 % 2 == 0 or s2 % 2 == 0:
            continue  # want an over-over arc between distinct crossings
        for arc2 in set(d.crossings[c1]) & set(d.crossings[c2]):
            if arc2 == arc:
                continue
            (d1, t1), (d2, t2) = d.ends[arc2]
            if {d1, d2} == {c1, c2} and t1 % 2 == 0 and t2 % 2 == 0:
                return c1, c2, arc, arc2
    return None


def _reduce_r1_r2(d: PDDiagram) -> tuple[PDDiagram, list[int]]:
    """Remove Reidemeister-I kinks and Reidemeister-II bigons until none remain.

    Returns the reduced diagram and, per removed kink in removal order, the
    slot s such that the kink's loop arc occupies slots s and s+1.
    """
    kinks: list[int] = []
    while True:
        r1 = _find_r1(d)
        if r1 is not None:
            i, s = r1
            kinks.append(s)
            t = d.crossings[i]
            # fuse the two slots the loop arc does not occupy
            x, y = t[(s + 2) % 4], t[(s + 3) % 4]
            kept = [c for j, c in enumerate(d.crossings) if j != i]
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
        return d, kinks


def simplify(d: PDDiagram) -> PDDiagram:
    """Remove Reidemeister-I kinks and Reidemeister-II bigons until none remain."""
    return _reduce_r1_r2(d)[0]


def connected_sum(d1: PDDiagram, d2: PDDiagram, arc1: int, arc2: int) -> PDDiagram:
    """Cut arc1 and arc2 and cross-join the four ends."""
    if not d2.crossings:
        if num_components(d2) == 0:
            raise MalformedDiagramError("cannot sum with the empty diagram")
        return PDDiagram(d1.crossings, d1.free_loops + d2.free_loops - 1)
    if not d1.crossings:
        return connected_sum(d2, d1, arc2, arc1)
    if arc1 not in d1.ends:
        raise MalformedDiagramError(f"arc {arc1} not in first diagram")
    if arc2 not in d2.ends:
        raise MalformedDiagramError(f"arc {arc2} not in second diagram")

    # shift d2 labels into a fresh range
    shift = max(d1.ends) + 1
    d2_crossings = [tuple(a + shift for a in t) for t in d2.crossings]
    arc2 += shift
    # cut: second occurrence of each cut arc gets a fresh label
    fresh1 = shift + max(d2.ends) + 1
    fresh2 = fresh1 + 1

    def cut(crossings, arc, fresh):
        seen = False
        out = []
        for t in crossings:
            row = []
            for a in t:
                if a == arc and seen:
                    row.append(fresh)
                elif a == arc:
                    row.append(a)
                    seen = True
                else:
                    row.append(a)
            out.append(tuple(row))
        return out

    part1 = cut(list(d1.crossings), arc1, fresh1)
    part2 = cut(d2_crossings, arc2, fresh2)
    fusions = [(arc1, arc2), (fresh1, fresh2)]
    return _rebuild(part1 + part2, fusions, d1.free_loops + d2.free_loops)


# -- generators ---------------------------------------------------------


def close_braid(word, strands: int | None = None) -> PDDiagram:
    """Standard closure of a braid word.

    `word` is a sequence of nonzero signed generator indices (or a
    :class:`~qalt.braid3.BraidWord`); positive sigma_i crosses strand i+1
    over strand i, all strands oriented the same way.
    """
    letters = list(getattr(word, "letters", word))
    if strands is None:
        strands = getattr(word, "strands", None)
        if strands is None:
            raise MalformedDiagramError("strand count required")
    strands = int(strands)
    if strands < 1:
        raise MalformedDiagramError("need at least one strand")
    for g in letters:
        if g == 0 or abs(g) >= strands:
            raise MalformedDiagramError(
                f"generator {g} out of range for {strands} strands"
            )

    # current[p] is the arc label hanging at position p (1-based)
    start = [p for p in range(1, strands + 1)]
    current = list(start)
    nxt = strands + 1
    crossings: list[Crossing] = []
    for g in letters:
        i = abs(g)
        u, v = current[i - 1], current[i]  # NW, NE incoming
        x, y = nxt, nxt + 1  # SW, SE outgoing
        nxt += 2
        if g > 0:
            crossings.append((u, x, y, v))  # under runs NW-SE
        else:
            crossings.append((x, y, v, u))  # under runs NE-SW
        current[i - 1], current[i] = x, y

    fusions = [(start[p], current[p]) for p in range(strands)]
    return _rebuild(crossings, fusions, 0)


def generate_pretzel(signs: Sequence[int]) -> PDDiagram:
    """Standard pretzel diagram: vertical twist regions chained top and bottom.

    Entry p_i contributes |p_i| crossings of handedness sign(p_i); the i-th
    region's right strand joins the (i+1)-th region's left strand above and
    below, cyclically.
    """
    entries = list(signs)
    if not entries:
        raise MalformedDiagramError("pretzel needs at least one twist region")
    if any(p == 0 for p in entries):
        raise MalformedDiagramError("pretzel entries must be nonzero")
    if len(entries) < 2:
        raise MalformedDiagramError("pretzel needs at least 2 twist regions")

    crossings: list[Crossing] = []
    nxt = 1
    tops: list[tuple[int, int]] = []
    bottoms: list[tuple[int, int]] = []
    for p in entries:
        left, right = nxt, nxt + 1
        nxt += 2
        tops.append((left, right))
        cur = (left, right)
        for _ in range(abs(p)):
            u, v = cur
            x, y = nxt, nxt + 1
            nxt += 2
            if p > 0:
                crossings.append((u, x, y, v))
            else:
                crossings.append((x, y, v, u))
            cur = (x, y)
        bottoms.append(cur)

    k = len(entries)
    fusions = []
    for i in range(k):
        j = (i + 1) % k
        fusions.append((tops[i][1], tops[j][0]))  # right top -> next left top
        fusions.append((bottoms[i][1], bottoms[j][0]))
    return _rebuild(crossings, fusions, 0)


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
