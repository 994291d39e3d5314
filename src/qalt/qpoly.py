"""The BLM/Ho Q-polynomial of links and tangles, by a frontier sweep over the
descending basis, with a memoized skein recursion behind it.

Q is determined by Q(unknot) = 1 and Q(L+) + Q(L-) = x (Q(L0) + Q(L-inf)).

Q of a tangle diagram with 2k boundary points (`PDDiagram.boundary`) is a
vector over the (2k-1)!! matchings of its positions.  The basis tangle of a
matching has its arcs stacked, the arc with the lower position above the
others, and each arc monotone in height; a matching is the tuple of its pairs
(p, q), p < q, in order of p.  A link is the tangle with the empty boundary,
whose one matching is ().

The switch chain `_chain` walks a diagram once (`diagram._strands`: each arc
from its lower position, the arcs in position order, then the closed
components), switches the crossings first reached on their understrand, and
expands the skein relation along that chain; the two smoothings at each step
recurse into smaller diagrams.  The descending end is (2x^-1 - 1)^c times the
basis tangle of its matching, c its closed components; for a link it is the
k-component unlink, (2x^-1 - 1)^(k-1).

A connected link piece is swept instead (`_sweep_steps`, `_sweep`).  Its
crossings are absorbed in PD order into a growing disk; the next one is the
first whose arcs to the disk meet the disk's boundary, the frontier, in one
contiguous run, in the reverse of its slot order.  Two adjacent frontier
points with the same label are capped at once.  The state is Q of the tangle
inside the disk, at most 105 entries at the width cap of SWEEP_WIDTH = 8
points, and a step maps each basis tangle to `_transition`: the switch
chain's value of that basis tangle glued to the crossing or the cap, cached
for the process.  A piece whose frontier would grow wider goes to the switch
chain, whose smaller pieces are swept again.

Split pieces factor through Q(A u B) = (2x^-1 - 1) Q(A) Q(B) in
`diagram._expand`, which the bracket shares; `diagram._admit` checks input.
The memo is keyed on the exact diagram, `PDDiagram.key()`, and not on a
relabeling-invariant code.  The exact key cannot collide and costs one
tuple, where a canonical code walks the diagram from each of its 4n starts
and took most of the run time.  Every move renumbers arcs densely, so most
repeated subdiagrams come out identical and the memo still hits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count

from .diagram import (
    PDDiagram,
    SmoothingKind,
    _admit,
    _expand,
    _relabel,
    _strands,
    simplify,
    smooth,
    switch,
)
from .errors import MalformedDiagramError
from .poly import IntLaurent

DEFAULT_MAX_CROSSINGS = 14
# The widest frontier the sweep keeps: (2k-1)!! matchings at width 2k, 105 at
# 8.  The pieces of qaltbench's q_alt3 corpus reach 6 points and 15 of the 229
# of qa_scan reach 8; at a cap of 6 those 15 go to the switch chain instead.
SWEEP_WIDTH = 8

_X = IntLaurent.x()
_ONE = IntLaurent.const(1)
_UNLINK = IntLaurent({-1: 2, 0: -1})  # 2x^-1 - 1, the extra-component factor


class _Vector(dict):
    """{matching: coefficient}: Q of a tangle over the descending basis.

    `diagram._expand` multiplies it by the loop factor and by the values of
    split pieces, which are links: their one matching is ()."""

    def __mul__(self, other):
        if isinstance(other, _Vector):
            other = other[()]
        return _Vector({m: c * other for m, c in self.items()})

    __rmul__ = __mul__


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
    return _q(d, memo)[()]


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


def _q(d: PDDiagram, memo: dict) -> _Vector:
    q = _expand(simplify(d), memo, _UNLINK, _q_connected)
    # a crossingless link has no piece, and `_expand` returns its loop factor
    return q if type(q) is _Vector else _Vector({(): q})


def _q_connected(d: PDDiagram, memo: dict) -> _Vector:
    steps = None if d.boundary else _sweep_steps(d)
    return _chain(d, memo) if steps is None else _sweep(steps)


def _chain(d: PDDiagram, memo: dict) -> _Vector:
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
    val = _Vector(
        {matching: _UNLINK ** (len(strands) + d.free_loops - max(arcs, 1))}
    )
    memo[chain[-1].key()] = val
    for j in range(len(bad) - 1, -1, -1):
        c = bad[j]
        qa = _q(smooth(chain[j], c, SmoothingKind.A), memo)
        qb = _q(smooth(chain[j], c, SmoothingKind.B), memo)
        # Q(L+) = x (Q(L0) + Q(L-inf)) - Q(L-), one matching at a time
        val = _Vector(
            (m, v)
            for m in {*qa, *qb, *val}
            if (v := _X * (qa.get(m, 0) + qb.get(m, 0)) - val.get(m, 0))
        )
        memo[chain[j].key()] = val
    return val


# -- the frontier sweep ---------------------------------------------------


def _run(frontier: list[int], t) -> tuple[int, int, int] | None:
    """(i, r, s) when slots s, ..., s+r-1 of crossing `t` are its slots on
    the frontier and meet it at positions i+r-1, ..., i (mod its width), r >= 1;
    None when no such run exists.  The empty frontier gives (0, 0, 0)."""
    w = len(frontier)
    if not w:
        return 0, 0, 0
    on = [a in frontier for a in t]
    r = sum(on)
    for s in range(4):
        if on[s] and (r == 4 or not on[s - 1]) and all(on[(s + j) % 4] for j in range(r)):
            i = frontier.index(t[(s + r - 1) % 4])
            if all(frontier[(i + k) % w] == t[(s + r - 1 - k) % 4] for k in range(r)):
                return i, r, s
    return None


def _sweep_steps(d: PDDiagram) -> list[tuple[int, tuple]] | None:
    """The steps that absorb the connected link diagram `d` into a disk, as
    (width, glue) arguments of `_transition`; None when the frontier would
    grow wider than SWEEP_WIDTH points or no crossing can be absorbed."""
    frontier: list[int] = []  # arc labels on the disk's boundary, counterclockwise
    left = list(range(len(d.crossings)))
    steps = []
    while left:
        for x in left:
            run = _run(frontier, d.crossings[x])
            if run is not None:
                break
        else:
            return None
        i, r, s = run
        w = len(frontier)
        if w + 4 - 2 * r > SWEEP_WIDTH:
            return None
        steps.append((w, (i, r, s % 2)))
        t = d.crossings[x]
        exposed = [t[(s + j) % 4] for j in range(r, 4)]
        frontier = frontier[max(0, i + r - w) : i] + exposed + frontier[i + r :]
        left.remove(x)
        while True:
            w = len(frontier)
            i = next((i for i in range(w) if frontier[i] == frontier[(i + 1) % w]), None)
            if i is None:
                break
            steps.append((w, (i, 2, None)))
            frontier = frontier[max(0, i + 2 - w) : i] + frontier[i + 2 :]
    return steps


def _sweep(steps: list[tuple[int, tuple]]) -> _Vector:
    state = {(): _ONE}  # the empty disk
    for width, glue in steps:
        new: dict = {}
        for m, c in state.items():
            for m2, e in _transition(width, m, glue).items():
                new[m2] = new.get(m2, 0) + c * e
        state = {m: c for m, c in new.items() if c}
    return _Vector(state)


def _basis(width: int, matching) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """Crossings and boundary of the basis tangle of `matching` on `width` points.

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


@lru_cache(maxsize=None)
def _transition(width: int, matching, glue) -> _Vector:
    """Q of the basis tangle of `matching` on `width` points glued to one
    crossing or one cap, over the basis of the new frontier.

    `glue` (i, r, s): a crossing whose slots s, ..., s+r-1 meet positions
    i+r-1, ..., i (mod width), and whose other slots become new positions in
    their place, in slot order.  (i, 2, None): a cap joining positions i and
    i+1 (mod width).  The cache holds at most one entry per width up to
    SWEEP_WIDTH, matching and glue; callers share each vector and only read it.
    """
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
    new = boundary[max(0, i + r - width) : i] + exposed + boundary[i + r :]
    return _chain(simplify(PDDiagram(*_relabel(crossings, fusions, 0, new))), {})
