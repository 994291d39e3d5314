"""Exact integer determinants by sparse fraction-free elimination.

`int_det` takes rows as ``{column: value}`` maps and keeps them without
zeros.  Step s takes the remaining row with the fewest nonzeros as pivot row
(lowest index on ties) and pivots on its diagonal entry when that is nonzero,
else on its lowest column.  Every other row with a nonzero in the pivot
column is updated by Bareiss' rule

    row <- (p_s * row - row[c] * pivot_row) / p_{s-1},

where p_s is the pivot of step s and p_0 = 1.  A row with a zero in the
pivot column would only be multiplied by p_s / p_{s-1}; it is left alone
instead, and remembers the step l it was last brought up to date.  Both
deferred scalings are folded into its next use: as a pivot row it is
scaled once by p_{s-1} / p_l, and as a row being updated it becomes
(p_s * row - row[c] * pivot_row) / p_l.

Each division is exact.  After step s, every entry Bareiss' rule would
hold is a minor of the row- and column-permuted matrix (Sylvester's
identity): the leading s x s block bordered by one more row and column.
Both formulas above produce such an entry, so they divide without
remainder; they are applied to the product, never to a ratio of pivots.
The last pivot is the determinant of the permuted matrix; the sign of the
row order times the sign of the column order turns it into det A.

On sparse matrices a pivot row meets few other rows and fill stays small, so
the cost is far below the n^3 of dense elimination.  `laplacian_det` builds
such minors for the Goeritz determinant (`jones`) and the matrix-tree count
(`braid3`).  A Laplacian's rows and columns sum to zero, so every principal
cofactor is equal (Kirchhoff); it deletes the vertex with the most
neighbours, the densest row and column, so the minor stays sparse.
"""

from __future__ import annotations

from collections.abc import Iterable


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
    active = {i: {j: v for j, v in r.items() if v} for i, r in enumerate(rows)}
    level = dict.fromkeys(active, 0)  # the step each row was last updated at
    piv = [1]
    row_order: list[int] = []
    col_order: list[int] = []
    for step in range(1, n + 1):
        i = min(active, key=lambda k: len(active[k]))
        row = active.pop(i)
        if not row:
            return 0
        last = level.pop(i)
        if last < step - 1:
            num, den = piv[step - 1], piv[last]
            row = {j: v * num // den for j, v in row.items()}
        c = i if i in row else min(row)
        p = row.pop(c)
        row_order.append(i)
        col_order.append(c)
        for k, other in active.items():
            a = other.pop(c, 0)
            if not a:
                continue
            new = {j: p * v for j, v in other.items()}
            for j, w in row.items():
                new[j] = new.get(j, 0) - a * w
            den = piv[level[k]]
            active[k] = {j: v // den for j, v in new.items() if v}
            level[k] = step
        piv.append(p)
    return _parity(row_order) * _parity(col_order) * piv[-1]


def laplacian_det(n: int, edges: Iterable[tuple[int, int, int]]) -> int:
    """A principal cofactor of the Laplacian of the multigraph on vertices
    0..n-1, each edge (u, v, weight) adding its weight; loops add nothing.
    Every such cofactor is equal; n = 0 gives 0."""
    if n == 0:
        return 0
    lap: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, w in edges:
        if u != v:
            for a, b in ((u, v), (v, u)):
                lap[a][a] = lap[a].get(a, 0) + w
                lap[a][b] = lap[a].get(b, 0) - w
    hub = max(range(n), key=lambda i: len(lap[i]))
    del lap[hub]
    return int_det([{j - (j > hub): v for j, v in r.items() if j != hub} for r in lap])
