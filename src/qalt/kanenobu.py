"""Closed-form Q-polynomials for the Kanenobu knot family K(p, q).

Every K(p, q) has determinant 25 (a recorded constant; no diagrams are
generated for this family).  The Q-polynomial is assembled from the sigma
polynomials and the Q values of the knots 8_8 and 8_9, and its degree obeys
a two-branch formula in |p|, |q|; only finitely many parameter pairs can
pass the deg Q < det obstruction.

`kanenobu_q` evaluates the closed form at x = X = 2^(8 nbytes) with
`poly.pack`, as one sum of three products of packed integers, and reads it
back with one `poly.unpack`, nbytes being `poly.nbytes_for` of the l1 bound
that the l1 norms of the factors give.  Each argument n reads one cached
row: the l1 norms of sigma_{n-1}, sigma_n and sigma_{n+1}, and, per
(n, nbytes), their packed values, p's taken times the constant factors.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .poly import IntLaurent, nbytes_for, pack, sigma, unpack

KANENOBU_DET = 25

Q_8_8 = IntLaurent.parse("2x^7+8x^6+4x^5-14x^4-10x^3+6x^2+4x+1")
Q_8_9 = IntLaurent.parse("2x^7+8x^6+4x^5-16x^4-10x^3+16x^2+4x-7")


# the two factors of kanenobu_q that do not depend on p and q; like every
# sigma_n, both have no negative exponent, so every factor packs at low = 0
# and the three products need no shift
_Q_8_9_MINUS_1 = Q_8_9 - 1
_Q_8_8_MINUS_1_OVER_X = IntLaurent.term(1, -1) * (Q_8_8 - 1)


def _l1(p: IntLaurent) -> int:
    return sum(abs(v) for _, v in p.items())


_L1_8_9 = _l1(_Q_8_9_MINUS_1)
_L1_8_8 = _l1(_Q_8_8_MINUS_1_OVER_X)


@lru_cache(maxsize=256)
def _l1_row(n: int) -> tuple[int, int, int]:
    """The l1 norms of sigma_{n-1}, sigma_n and sigma_{n+1}."""
    return _l1(sigma(n - 1)), _l1(sigma(n)), _l1(sigma(n + 1))


@lru_cache(maxsize=512)
def _packed_row(n: int, nbytes: int) -> tuple[int, int, int]:
    """sigma_{n-1}, sigma_n and sigma_{n+1} packed at `nbytes`."""
    return tuple(pack(sigma(m), nbytes, 0) for m in (n - 1, n, n + 1))


@lru_cache(maxsize=512)
def _scaled_row(n: int, nbytes: int) -> tuple[int, int, int]:
    """sigma_{n-1} x^-1 (Q(8_8)-1), sigma_n (Q(8_9)-1) and
    sigma_{n+1} x^-1 (Q(8_8)-1) packed at `nbytes`."""
    f89, f88 = pack(_Q_8_9_MINUS_1, nbytes, 0), pack(_Q_8_8_MINUS_1_OVER_X, nbytes, 0)
    below, at, above = _packed_row(n, nbytes)
    return below * f88, at * f89, above * f88


def kanenobu_q(p: int, q: int) -> IntLaurent:
    """Q of K(p, q):
    -sigma_p sigma_q (Q(8_9)-1) + x^-1 (sigma_{p+1} sigma_{q+1}
    + sigma_{p-1} sigma_{q-1}) (Q(8_8)-1) + 1.

    Evaluated on packed integers at X = 2^(8 nbytes) and decoded once, with
    nbytes = `poly.nbytes_for(B)` for the l1 bound B = l1(sigma_p)
    l1(sigma_q) l1(Q(8_9)-1) + (l1(sigma_{p+1}) l1(sigma_{q+1})
    + l1(sigma_{p-1}) l1(sigma_{q-1})) l1(x^-1 (Q(8_8)-1)) + 1.  Each
    argument's three sigmas come from one cached row: their l1 norms by
    n, and their packed values by (n, nbytes), p's already times the
    constant factor it meets, so a cell makes four cache calls and three
    products.  p and q must be integers (`operator.index`); anything else
    raises TypeError.
    """
    p, q = operator.index(p), operator.index(q)
    (l1_pb, l1_p, l1_pa), (l1_qb, l1_q, l1_qa) = _l1_row(p), _l1_row(q)
    nbytes = nbytes_for(l1_p * l1_q * _L1_8_9 + (l1_pa * l1_qa + l1_pb * l1_qb) * _L1_8_8 + 1)
    p_below, p_at, p_above = _scaled_row(p, nbytes)
    q_below, q_at, q_above = _packed_row(q, nbytes)
    return unpack(p_above * q_above + p_below * q_below - p_at * q_at + 1, nbytes)


def kanenobu_degree(p: int, q: int) -> int:
    """deg Q(K(p, q)): |p|+|q|+6 when pq >= 0, else |p|+|q|+5.

    p and q must be integers (`operator.index`); anything else raises
    TypeError, as in `kanenobu_q`.
    """
    p, q = operator.index(p), operator.index(q)
    base = abs(p) + abs(q)
    return base + 6 if p * q >= 0 else base + 5


def qa_candidate_scan() -> set[tuple[int, int]]:
    """All (p, q) passing the necessary condition deg Q < det = 25.

    The degree grows linearly in |p| + |q|, so the set is finite; the scan
    enumerates the full box allowed by the pq < 0 branch.
    """
    out: set[tuple[int, int]] = set()
    bound = KANENOBU_DET - 5  # |p| + |q| beyond this fails in both branches
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if kanenobu_degree(p, q) < KANENOBU_DET:
                out.add((p, q))
    return out
