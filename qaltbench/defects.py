"""Known defects of qalt, found by the cross-check and kept out of the corpus.

    python3 qaltbench/defects.py

A workload holds only jobs that qalt gets right, so that a run's ``correct``
flags a regression and nothing else.  The inputs on which qalt is known to be
wrong are reproduced here instead: the script prints each defect with its
evidence and exits 1 while any of them stands.  selftest.py runs each one as
an expected failure, which fails the suite once the defect is fixed; then put
its inputs back into the corpus (corpus.py) and delete it here.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from jobs import CROSSING_BOUND, braid3, diagram, evaluate, jones, montesinos, qpoly
from crosscheck import pretzel_family_entries


def det_formula_order() -> tuple[bool, str]:
    """det_formula disagrees with the Goeritz determinant of the closure."""
    nf = braid3.B3NormalForm.family1(-1, [(1, 1), (2, 3), (3, 1)] * 4)
    got = braid3.det_formula(nf)
    want = jones.determinant_goeritz(diagram.close_braid(braid3.to_word(nf)))
    return got != want, f"n=-1, ((1,1),(2,3),(3,1)) x 4: det_formula {got}, Goeritz {want}"


def pretzel_family_b_degree() -> tuple[bool, str]:
    """pretzel_family_report("B", r) exceeds deg Q <= c(D) - 1."""
    r = 5
    report = montesinos.pretzel_family_report("B", r)
    bound = sum(map(abs, pretzel_family_entries("B", r))) - 1
    return report.deg_q > bound, f"r={r}: deg Q {report.deg_q}, bound c(D) - 1 = {bound}"


def canonical_code_collision() -> tuple[bool, str]:
    """The canonical_code memo key collides, so Q of a knot has Q(-2) != 1."""
    k = 8
    q = qpoly.q_polynomial(diagram.close_braid([1, -2] * k, 3), CROSSING_BOUND)
    value = Fraction(evaluate(q, -2))
    return value != 1, f"(s1 s2^-1)^{k}, a knot: Q(-2) = {value}, not 1"


DEFECTS = {
    "det_formula_order": det_formula_order,
    "pretzel_family_b_degree": pretzel_family_b_degree,
    "canonical_code_collision": canonical_code_collision,
}


def main() -> int:
    standing = 0
    for name, fn in DEFECTS.items():
        stands, detail = fn()
        standing += stands
        print(f"{name:26s} {'stands' if stands else 'fixed '}  {detail}")
    return 1 if standing else 0


if __name__ == "__main__":
    sys.exit(main())
