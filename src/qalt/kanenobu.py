"""Closed-form Q-polynomials for the Kanenobu knot family K(p, q).

Every K(p, q) has determinant 25 (a recorded constant; no diagrams are
generated for this family).  The Q-polynomial is assembled from the sigma
polynomials and the Q values of the knots 8_8 and 8_9, and its degree obeys
a two-branch formula in |p|, |q|; only finitely many parameter pairs can
pass the deg Q < det obstruction.
"""

from __future__ import annotations

from .poly import IntLaurent, sigma

KANENOBU_DET = 25

Q_8_8 = IntLaurent.parse("2x^7+8x^6+4x^5-14x^4-10x^3+6x^2+4x+1")
Q_8_9 = IntLaurent.parse("2x^7+8x^6+4x^5-16x^4-10x^3+16x^2+4x-7")


# the two factors of kanenobu_q that do not depend on p and q
_Q_8_9_MINUS_1 = Q_8_9 - 1
_Q_8_8_MINUS_1_OVER_X = IntLaurent.term(1, -1) * (Q_8_8 - 1)


def kanenobu_q(p: int, q: int) -> IntLaurent:
    """Q of K(p, q):
    -sigma_p sigma_q (Q(8_9)-1) + x^-1 (sigma_{p+1} sigma_{q+1}
    + sigma_{p-1} sigma_{q-1}) (Q(8_8)-1) + 1."""
    first = -(sigma(p) * sigma(q)) * _Q_8_9_MINUS_1
    second = (
        sigma(p + 1) * sigma(q + 1) + sigma(p - 1) * sigma(q - 1)
    ) * _Q_8_8_MINUS_1_OVER_X
    return first + second + 1


def kanenobu_degree(p: int, q: int) -> int:
    """deg Q(K(p, q)): |p|+|q|+6 when pq >= 0, else |p|+|q|+5."""
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
