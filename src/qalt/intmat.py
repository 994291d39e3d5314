"""Exact integer determinants by sparse fraction-free elimination.

`int_det` takes rows as ``{column: value}`` maps and keeps them without
zeros.  Step s takes the remaining row with the fewest nonzeros as pivot row
(lowest index on ties) and pivots on its diagonal entry when that is nonzero,
else on its lowest column.  Bareiss' rule updates every other entry:

    a_kj <- (p_s * a_kj - a_kc * a_ij) / p_{s-1},

where i and c are the pivot row and column, p_s is the pivot of step s and
p_0 = 1.  When a_kc or a_ij is zero this only multiplies a_kj by
p_s / p_{s-1}, so such an entry is left alone: each entry keeps the step l
it was last written at, and its value after step s is its stored value
times p_s / p_l.  A step therefore writes only the rows with a nonzero in
column c, and in each of them only column c and the columns of the pivot
row; every other entry keeps its stored value.  It brings the pivot row's
entries and each a_kc up to step s - 1 (times p_{s-1} / p_l) before using
them.

Each division is exact.  After step s, every entry Bareiss' rule would
hold is a minor of the row- and column-permuted matrix (Sylvester's
identity): the leading s x s block bordered by one more row and column.
So stored value times p_s / p_l is an integer, as is the update, and each
is computed as a product divided once, never as a ratio of pivots.  The
last pivot is the determinant of the permuted matrix; the sign of the row
order times the sign of the column order turns it into det A.

A map from each column to the rows nonzero there finds the rows a step
writes, and a heap of (row size, row index), with an entry pushed whenever
a row changes size and stale ones skipped, finds the pivot row.  A step
thus costs the pivot row's size times the number of rows it writes, plus
a heap operation per row that changes size: the fill, not n^2.  On sparse
matrices a pivot row meets few other rows and fill stays small.
`laplacian_det` builds such minors from one graph format, a vertex count
and a list of weighted edges (u, v, weight), parallel edges summing: the
Goeritz graph (`jones`) and the Tutte graph of the matrix-tree count
(`braid3`) both reach it so.  A Laplacian's rows and columns sum to zero,
so every principal cofactor is equal (Kirchhoff); it deletes the vertex
with the most neighbours, the densest row and column, so the minor stays
sparse.
"""
from __future__ import annotations

from collections.abc import Iterable
from heapq import heapify, heappop, heappush


def _parity(order: list[int]) -> int:
    """+1 or -1: the sign of the permutation step -> order[step]."""
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        j = start
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def int_det(rows: list[dict[int, int]]) -> int:
    """Determinant of the n x n integer matrix whose row i is the map rows[i]
    from column to entry, exactly; a column outside 0..n-1 raises ValueError."""
    n = len(rows)
    if any(not 0 <= j < n for r in rows for j in r):
        raise ValueError(f"a column lies outside 0..{n - 1}")
    # entry j of row k is (v, l): after step s its Bareiss value is v * piv[s] // piv[l]
    active: list[dict[int, tuple[int, int]] | None] = [
        {j: (v, 0) for j, v in r.items() if v} for r in rows
    ]
    holders: list[set[int]] = [set() for _ in range(n)]  # column -> rows nonzero there
    for k, r in enumerate(active):
        for j in r:
            holders[j].add(k)
    heap = [(len(r), k) for k, r in enumerate(active)]  # stale once a row changes size
    heapify(heap)
    piv = [1]
    row_order: list[int] = []
    col_order: list[int] = []
    for step in range(1, n + 1):
        size, i = heappop(heap)
        while active[i] is None or len(active[i]) != size:
            size, i = heappop(heap)
        row, active[i] = active[i], None
        if not row:
            return 0
        last, before = step - 1, piv[-1]  # entries are brought up to step - 1
        pivot_row: dict[int, int] = {}
        for j, (v, l) in row.items():
            holders[j].discard(i)
            pivot_row[j] = v if l == last else v * before // piv[l]
        c = i if i in pivot_row else min(pivot_row)
        p = pivot_row.pop(c)
        row_order.append(i)
        col_order.append(c)
        for k in holders[c]:
            other = active[k]
            was = len(other)
            v, l = other.pop(c)
            a = v if l == last else v * before // piv[l]
            for j, w in pivot_row.items():
                old = other.get(j)
                if old is None:
                    holders[j].add(k)
                    other[j] = (-a * w // before, step)
                    continue
                v, l = old
                v = (p * (v if l == last else v * before // piv[l]) - a * w) // before
                if v:
                    other[j] = (v, step)
                else:
                    del other[j]
                    holders[j].discard(k)
            if len(other) != was:
                heappush(heap, (len(other), k))
        piv.append(p)
    return _parity(row_order) * _parity(col_order) * piv[-1]


def laplacian_det(n: int, edges: Iterable[tuple[int, int, int]]) -> int:
    """A principal cofactor of the Laplacian of the multigraph on vertices
    0..n-1, each edge (u, v, weight) adding its weight; loops add nothing,
    and an edge with a vertex outside 0..n-1 raises ValueError.  Every such
    cofactor is equal; n = 0 gives 0."""
    lap: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {(u, v, w)} has a vertex outside 0..{n - 1}")
        if u != v:
            for a, b in ((u, v), (v, u)):
                lap[a][a] = lap[a].get(a, 0) + w
                lap[a][b] = lap[a].get(b, 0) - w
    if n == 0:
        return 0
    hub = max(range(n), key=lambda i: len(lap[i]))
    del lap[hub]
    return int_det([{j - (j > hub): v for j, v in r.items() if j != hub} for r in lap])
