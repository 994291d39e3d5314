import random
from fractions import Fraction
from itertools import permutations

import pytest

from qalt.intmat import int_det, laplacian_det


def fraction_det(m: list[list[int]]) -> int:
    """Reference: Gaussian elimination over the rationals, row pivoting only."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if not a[i][k]:
                continue
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def sparse(m: list[list[int]]) -> list[dict[int, int]]:
    """The rows of a dense matrix as {column: value} maps, zeros kept."""
    return [dict(enumerate(row)) for row in m]


def test_random_matrices_match_fraction_elimination():
    rng = random.Random(20140603)
    singular = 0
    for _ in range(600):
        n = rng.randint(0, 8)
        density = rng.choice((0.1, 0.25, 0.5, 1.0))
        m = [
            [rng.randint(-7, 7) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.2:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # often singular
        expected = fraction_det(m)
        singular += expected == 0
        assert int_det(sparse(m)) == expected, m
    assert singular > 50


def test_permutation_matrices_give_their_sign():
    for n in range(1, 6):
        for perm in permutations(range(n)):
            m = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
            inversions = sum(
                perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
            )
            assert int_det(sparse(m)) == (-1) ** inversions


def test_shapes():
    assert int_det([]) == 1
    assert int_det([{0: 5}]) == 5
    assert int_det([{0: 0}]) == 0
    assert int_det([{}, {1: 3}]) == 0
    assert int_det([{1: 2, 0: 0}, {0: 3}]) == -6
    for rows in ([{1: 2}], [{0: 1}, {2: 3}], [{-1: 1}, {1: 1}]):
        with pytest.raises(ValueError):
            int_det(rows)


def random_sparse(rng: random.Random, n: int) -> list[list[int]]:
    """An n x n matrix with 1-4 nonzeros per row, mostly +-1 so that updates
    cancel; diagonals often zero and a row often repeated (singular)."""
    m = [[0] * n for _ in range(n)]
    perm = rng.sample(range(n), n)  # a nonzero in every row and every column
    for i, row in enumerate(m):
        for j in {perm[i], *rng.sample(range(n), rng.randint(0, 3))}:
            row[j] = rng.choice((-2, -1, -1, 1, 1, 2))
        if perm[i] != i and rng.random() < 0.5:
            row[i] = 0
    if rng.random() < 0.25:
        m[rng.randrange(n)] = list(m[rng.randrange(n)])
    return m


def test_sparse_matrices_match_fraction_elimination():
    # orders 20-60 run many steps between the updates of one entry, so most
    # entries are read at a level far below the current step
    rng = random.Random(20140607)
    singular = 0
    for _ in range(60):
        m = random_sparse(rng, rng.randint(20, 60))
        expected = fraction_det(m)
        singular += expected == 0
        assert int_det(sparse(m)) == expected, m
    assert 5 < singular < 55


def test_cancelled_entry_leaves_its_column():
    # step 1 pivots row 0 on column 0 (p_1 = 2) and cancels row 1's entry in
    # column 1: 2 * 3 - 3 * 2 = 0.  Step 2 pivots row 2 on column 1, which
    # row 1 no longer holds; row 1's other entries stay at level 0 until it
    # is hit at step 3 and pivoted at step 4.
    m = [
        [2, 2, 0, 0, 0],
        [3, 3, 1, -1, 2],
        [0, 1, 0, 5, 0],
        [0, -2, 1, 1, 1],
        [0, 0, 1, 0, 3],
    ]
    assert int_det(sparse(m)) == fraction_det(m) == -26


def reduced_laplacian(vertices: int, edges, keep_first: bool = False):
    lap = [[0] * vertices for _ in range(vertices)]
    for u, v in edges:
        lap[u][v] -= 1
        lap[v][u] -= 1
        lap[u][u] += 1
        lap[v][v] += 1
    drop = vertices - 1 if keep_first else 0
    return [
        [x for j, x in enumerate(row) if j != drop]
        for i, row in enumerate(lap)
        if i != drop
    ]


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_wheel_spanning_trees_with_the_dense_hub_row():
    # W_n: hub 0 joined to the n-cycle 1..n; tau(W_n) = L_{2n} - 2.  The kept
    # hub row and column are dense, the rest of the minor is sparse.
    n = 150
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    minor = reduced_laplacian(n + 1, edges, keep_first=True)
    assert int_det(sparse(minor)) == lucas(2 * n) - 2
    assert laplacian_det(n + 1, [(u, v, 1) for u, v in edges]) == lucas(2 * n) - 2


def test_complete_graph_spanning_trees():
    # Cayley: K_n has n^(n-2) spanning trees; every entry of the minor is nonzero
    n = 40
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert int_det(sparse(reduced_laplacian(n, edges))) == n ** (n - 2)
    assert laplacian_det(n, [(u, v, 1) for u, v in edges]) == n ** (n - 2)


def test_laplacian_det_is_every_principal_cofactor():
    # random weighted multigraphs: negative weights, parallel edges whose
    # weights cancel, loops, and disconnected graphs (every cofactor 0)
    rng = random.Random(20140605)
    zero = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 14))
        ]
        if edges and rng.random() < 0.3:
            u, v, w = rng.choice(edges)
            edges.append((v, u, -w))  # cancels an edge
        lap = [[0] * n for _ in range(n)]
        for u, v, w in edges:
            if u != v:
                lap[u][u] += w
                lap[v][v] += w
                lap[u][v] -= w
                lap[v][u] -= w
        value = laplacian_det(n, edges)
        zero += value == 0
        for k in range(n):
            minor = [[x for j, x in enumerate(row) if j != k] for i, row in enumerate(lap) if i != k]
            assert int_det(sparse(minor)) == value, (n, edges, k)
    assert 50 < zero < 250  # singular and nonsingular alike
    assert laplacian_det(0, []) == 0
    assert laplacian_det(1, []) == laplacian_det(1, [(0, 0, 5)]) == 1
    assert laplacian_det(2, [(0, 1, 2), (1, 0, 3)]) == 5
    assert laplacian_det(2, [(0, 1, 2), (0, 1, -2)]) == 0


@pytest.mark.parametrize("n, edge", [(3, (0, 3, 1)), (3, (-1, 2, 1)), (2, (2, 2, 5)), (0, (0, 1, 1))])
def test_laplacian_det_names_an_edge_off_the_vertices(n, edge):
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}, {edge[2]}\) has a vertex outside 0\.\.{n - 1}"):
        laplacian_det(n, [(0, 1, 1), edge] if n > 1 else [edge])
