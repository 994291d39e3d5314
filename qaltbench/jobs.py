"""One benchmark job: build its input, call into qalt, reduce the result.

A job is a JSON object with an ``id``, a ``kind`` and the kind's inputs.
:func:`compute` is the timed part; :func:`digest` turns its value into the
record that ``expected/<workload>.json`` pins for the job.  Every call into
qalt goes through a module attribute (``diagram.close_braid``, not a name
imported from it), so that a traced run sees it.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qalt  # noqa: E402

if Path(qalt.__file__).resolve().parent != ROOT / "src" / "qalt":
    raise ImportError(f"qalt imported from {qalt.__file__}, not from {ROOT / 'src'}")

from qalt import braid3, diagram, jones, kanenobu, montesinos, qpoly  # noqa: E402

# Passed to every Q and Jones call: larger than any diagram in the corpus, so
# a change to the library's default bounds does not change what runs.
CROSSING_BOUND = 64


def build(recipe: dict) -> diagram.PDDiagram:
    """The diagram a recipe names, built by one of qalt's public builders."""
    if "braid" in recipe:
        return diagram.close_braid(recipe["braid"], recipe["strands"])
    if "pretzel" in recipe:
        return diagram.generate_pretzel(recipe["pretzel"])
    if "pd" in recipe:
        return diagram.parse_pd(recipe["pd"])
    if "sum" in recipe:
        first, second = recipe["sum"]
        return diagram.connected_sum(build(first), build(second), *recipe["arcs"])
    raise ValueError(f"unknown diagram recipe with keys {sorted(recipe)}")


def compute(job: dict):
    """Run one job; this is what the benchmark times."""
    kind = job["kind"]
    if kind == "q":
        return qpoly.q_polynomial(build(job["diagram"]), CROSSING_BOUND)
    if kind == "check":
        return jones.obstruction_check(
            build(job["diagram"]), CROSSING_BOUND, CROSSING_BOUND
        )
    if kind == "goeritz":
        reduced = diagram.simplify(build(job["diagram"]))
        return len(reduced), jones.determinant_goeritz(reduced)
    if kind == "birman":
        return braid3.birman_jones(braid3.BraidWord(3, tuple(job["word"])))
    if kind == "detf":
        nf = braid3.B3NormalForm.family1(job["n"], job["pairs"])
        trees = braid3.spanning_tree_count(braid3.tutte_graph(nf.pairs))
        return braid3.det_formula(nf), trees
    if kind == "kanenobu":
        return kanenobu.kanenobu_q(job["p"], job["q"])
    if kind == "montesinos":
        m = montesinos.MontesinosPresentation.make(1, job["tangles"], job["final"])
        return (
            montesinos.montesinos_det(m),
            montesinos.montesinos_crossing_number(m),
            montesinos.predicted_q_degree(m),
            montesinos.standard_form_check(m),
        )
    if kind == "corollary26":
        return montesinos.corollary26_obstruction(
            job["tangles"], job["beta"], job["l"], job["k"]
        )
    if kind == "pretzel_family":
        return montesinos.pretzel_family_report(job["family"], job["r"])
    raise ValueError(f"unknown job kind {kind!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def evaluate(p, x: int) -> str:
    """Exact value of a Laurent polynomial at an integer point, as text."""
    return str(sum(Fraction(x) ** e * v for e, v in p.items()))


def digest(job: dict, value) -> dict:
    """The record compared with the expected file: exact text hashes,
    integers and verdict fields only, never Python's ``hash()``."""
    kind = job["kind"]
    if kind in ("q", "kanenobu"):
        return {
            "sha256": sha256(value.render()),
            "degree": value.degree(),
            "at_1": evaluate(value, 1),
            "at_2": evaluate(value, 2),
            "at_minus_2": evaluate(value, -2),
        }
    if kind == "check":
        return {
            "verdict": value.verdict,
            "deg_q": value.deg_q,
            "det": value.det,
            "breadth": str(value.breadth),
        }
    if kind == "goeritz":
        crossings, det = value
        return {"crossings": crossings, "det": det}
    if kind == "birman":
        return {"sha256": sha256(value.render_t())}
    if kind == "detf":
        det, trees = value
        return {"det": det, "trees": trees}
    if kind == "montesinos":
        det, crossings, deg_q, standard = value
        return {"det": det, "crossings": crossings, "deg_q": deg_q, "standard": standard}
    if kind == "corollary26":
        return {
            "det": value.det,
            "crossings": value.crossing_number,
            "verdict": value.verdict,
            "threshold_k": value.threshold_k,
        }
    if kind == "pretzel_family":
        return {
            "deg_q": value.deg_q,
            "det": value.det,
            "inequality": value.satisfies_theorem_inequality,
        }
    raise ValueError(f"unknown job kind {kind!r}")
