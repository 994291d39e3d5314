"""Montesinos and pretzel machinery: determinant and crossing-number
formulas (e = 1 regime), the fixed-determinant obstruction family, the
reduced standard-form inequalities, and the three pretzel families that
pass the obstruction while not being quasi-alternating.

All arithmetic is exact rational; no diagrams are built here (the diagram
pipeline cross-checks live next to the pretzel generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import HypothesisViolationError, InternalConsistencyError


@dataclass(frozen=True)
class MontesinosPresentation:
    """M(e; (a_1, b_1), ..., (a_r, b_r), (a, b)) with coprime tangles."""

    e: int
    tangles: tuple[tuple[int, int], ...]
    final_tangle: tuple[int, int]

    def __post_init__(self):
        for a, b in self.tangles:
            if a < 2 or not 0 < b < a:
                raise HypothesisViolationError(
                    f"tangle ({a},{b}) needs a >= 2 and 0 < b < a"
                )
            if gcd(a, b) != 1:
                raise HypothesisViolationError(f"tangle ({a},{b}) is not coprime")
        a, b = self.final_tangle
        if a < 1 or b == 0:
            raise HypothesisViolationError(
                f"final tangle ({a},{b}) needs a >= 1 and b != 0"
            )
        if gcd(a, abs(b)) != 1:
            raise HypothesisViolationError(f"final tangle ({a},{b}) is not coprime")

    @staticmethod
    def make(e, tangles, final) -> "MontesinosPresentation":
        return MontesinosPresentation(
            int(e),
            tuple((int(a), int(b)) for a, b in tangles),
            (int(final[0]), int(final[1])),
        )


def continued_fraction(a: int, b: int) -> list[int]:
    """All-positive Euclidean expansion of a/b (b > 0)."""
    if b <= 0:
        raise HypothesisViolationError("continued fraction needs a positive denominator")
    out = []
    while b:
        out.append(a // b)
        a, b = b, a % b
    return out


def montesinos_det(m: MontesinosPresentation) -> int:
    """det = (a prod a_i)(-1 + sum b_i/a_i + b/a) in the e = 1 regime."""
    if m.e != 1:
        raise HypothesisViolationError("determinant formula stated for e = 1 only")
    a, b = m.final_tangle
    total = Fraction(-1)
    prod = a
    for ai, bi in m.tangles:
        total += Fraction(bi, ai)
        prod *= ai
    total += Fraction(b, a)
    value = prod * total
    if value.denominator != 1:
        raise HypothesisViolationError(
            f"determinant formula gives the non-integer {value}"
        )
    if value < 0:
        raise HypothesisViolationError(
            f"determinant formula gives the negative value {value};"
            " presentation is outside the formula's validity"
        )
    return int(value)


def _tangle_crossings(a: int, b: int) -> int:
    return sum(continued_fraction(a, abs(b)))


def montesinos_crossing_number(m: MontesinosPresentation) -> int:
    """c(D) = |e| + crossing count of every tangle's positive expansion."""
    total = abs(m.e)
    for a, b in m.tangles:
        total += _tangle_crossings(a, b)
    a, b = m.final_tangle
    total += _tangle_crossings(a, b)
    return total


def predicted_q_degree(m: MontesinosPresentation) -> int:
    """deg Q = c(D) - 2 for reduced standard-form Montesinos diagrams."""
    return montesinos_crossing_number(m) - 2


@dataclass(frozen=True)
class Corollary26Report:
    presentation: MontesinosPresentation
    det: int
    crossing_number: int
    verdict: str
    threshold_k: int


def corollary26_obstruction(tangles, beta: int, l: int, k: int) -> Corollary26Report:
    """The alpha = l + k*beta family with e = 1 and sum b_i/a_i = 1.

    The determinant beta * prod(a_i) does not depend on k while the
    crossing count grows by one per unit of k, so beyond the returned
    threshold every member is flagged NotQuasiAlternating.
    """
    tangles = tuple((int(a), int(b)) for a, b in tangles)
    total = sum(Fraction(b, a) for a, b in tangles)
    if total != 1:
        raise HypothesisViolationError(
            f"need sum b_i/a_i = 1 exactly, got {total}"
        )
    if beta < 1 or not 0 <= l < beta:
        raise HypothesisViolationError("need beta >= 1 and 0 <= l < beta")
    if gcd(l, beta) != 1 and l != 0:
        raise HypothesisViolationError(f"alpha = {l} + k*{beta} is never coprime to beta")
    if l == 0 and beta != 1:
        raise HypothesisViolationError(f"alpha = k*{beta} is never coprime to beta")
    if k < 1:
        raise HypothesisViolationError("need k >= 1")

    alpha = l + k * beta
    pres = MontesinosPresentation.make(1, tangles, (alpha, beta))
    det = montesinos_det(pres)
    base = 1 + sum(_tangle_crossings(a, b) for a, b in tangles)
    tail = sum(continued_fraction(beta, l)) if l > 0 else 0
    c = base + k + tail
    if c != montesinos_crossing_number(pres):
        raise InternalConsistencyError(
            f"crossing count {c} differs from montesinos_crossing_number"
        )
    verdict = "NotQuasiAlternating" if c - 2 >= det else "Inconclusive"
    threshold = max(1, det + 2 - base - tail)
    return Corollary26Report(pres, det, c, verdict, threshold)


def standard_form_check(m: MontesinosPresentation) -> bool:
    """The reduced standard-form inequalities, as exact comparisons."""
    a, b = m.final_tangle
    if not 0 < b < a:
        return False
    ratios = [Fraction(ai, bi) for ai, bi in m.tangles]
    final_ratio = Fraction(a, b)
    for i, (ai, bi) in enumerate(m.tangles):
        others = [r for j, r in enumerate(ratios) if j != i]
        bound = min(others + [final_ratio])
        if Fraction(ai, ai - bi) > bound:
            return False
    if ratios and Fraction(a, a - b) > min(ratios):
        return False
    return True


@dataclass(frozen=True)
class PretzelFamilyReport:
    family: str
    parameter: int
    entries: tuple[int, int, int]
    deg_q: int
    det: int
    satisfies_theorem_inequality: bool


def pretzel_family_report(family: str, parameter: int) -> PretzelFamilyReport:
    """Closed forms for the families P(r+2, r+1, -r), P(r+1, r+1, -r)
    (odd r > 3) and P(n, n, -n) (n >= 3)."""
    fam = family.upper()
    r = int(parameter)
    if fam == "A":
        if r <= 3 or r % 2 == 0:
            raise HypothesisViolationError("family A needs odd r > 3")
        entries = (r + 2, r + 1, -r)
        deg, det = 3 * r + 1, r * r - 2
    elif fam == "B":
        if r <= 3 or r % 2 == 0:
            raise HypothesisViolationError("family B needs odd r > 3")
        entries = (r + 1, r + 1, -r)
        deg, det = 3 * r, r * r - 1
    elif fam == "C":
        if r < 3:
            raise HypothesisViolationError("family C needs n >= 3")
        entries = (r, r, -r)
        deg, det = 3 * r - 2, r * r
    else:
        raise HypothesisViolationError(f"unknown pretzel family {family!r}")
    return PretzelFamilyReport(fam, r, entries, deg, det, deg < det)
