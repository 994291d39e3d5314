"""Cross-check expected results against sources independent of the engine
that produced them.

- Q records: Q(1) = 1, Q(-2) = (-2)^(mu-1) and Q(2) = det^2, with mu the
  number of components and det from the Goeritz form (no skein recursion).
- Verdict records: det equals the Goeritz determinant; for closed 3-braids of
  at most 16 crossings, det and breadth equal those of Birman's trace formula;
  the pretzel families A/B/C agree with ``pretzel_family_report``.
- For 3-braids of at most 16 crossings, ``birman_jones`` equals
  ``jones_polynomial`` of the closure (for links: in det and breadth).
- ``det_formula`` equals the spanning-tree count (+4 for odd n) and the
  Goeritz determinant of the closure.
- Goeritz records of 3-braid closures equal |V(-1)| from ``birman_jones``.
- Kanenobu records: degree from ``kanenobu_degree``, Q(2) = 25^2, Q(1) = 1
  and Q(-2) = 1.
- Pretzel family records: deg Q <= c(D) - 1, the Brandt-Lickorish-Millett
  bound; the first members of each family also agree with obstruction_check.

``check`` returns one line per disagreement; an empty list means agreement.
"""

from __future__ import annotations

from fractions import Fraction

from jobs import CROSSING_BOUND, braid3, build, diagram, jones, kanenobu, montesinos, sha256
from qalt.poly import breadth_t, eval_at_s_equals_i

JONES_CHECK_MAX = 16  # birman_jones vs jones_polynomial up to this many crossings
BIRMAN_DET_MAX = 300  # Birman determinants of longer words cost more than the run can spare


def _birman(word):
    return braid3.birman_jones(braid3.BraidWord(3, tuple(word)))


def _det(v) -> int:
    return eval_at_s_equals_i(v).abs_pure()


def _is_3braid(job: dict) -> bool:
    return job.get("diagram", {}).get("strands") == 3 or job.get("strands") == 3


def _word(job: dict):
    return job["diagram"]["braid"] if "braid" in job.get("diagram", {}) else job["word"]


def _check_q(job, rec, out):
    d = build(job["diagram"])
    mu = diagram.num_components(d)
    det = jones.determinant_goeritz(d)
    if rec["at_1"] != "1":
        out.append(f"{job['id']}: Q(1) = {rec['at_1']}, not 1")
    if rec["at_minus_2"] != str((-2) ** (mu - 1)):
        out.append(f"{job['id']}: Q(-2) = {rec['at_minus_2']}, not (-2)^{mu - 1}")
    if rec["at_2"] != str(det * det):
        out.append(f"{job['id']}: Q(2) = {rec['at_2']}, Goeritz det^2 = {det * det}")
    if _is_3braid(job) and len(d) <= JONES_CHECK_MAX:
        _check_birman_jones(job, d, mu, out)


def _check_birman_jones(job, d, mu, out):
    """Birman's formula orients every strand along the braid, jones_polynomial
    along its own walk; the two agree for knots, and for links (whose Jones
    polynomial depends on the orientations) in det and breadth."""
    v, w = _birman(_word(job)), jones.jones_polynomial(d, CROSSING_BOUND)
    same = v == w if mu == 1 else (_det(v), breadth_t(v)) == (_det(w), breadth_t(w))
    if not same:
        out.append(f"{job['id']}: birman_jones differs from jones_polynomial")


def _check_verdict(job, rec, out):
    d = build(job["diagram"])
    goeritz = jones.determinant_goeritz(d)
    if rec["det"] != goeritz:
        out.append(f"{job['id']}: det {rec['det']}, Goeritz {goeritz}")
    if _is_3braid(job) and len(d) <= JONES_CHECK_MAX:
        v = _birman(_word(job))
        if _det(v) != rec["det"] or breadth_t(v) != Fraction(rec["breadth"]):
            out.append(f"{job['id']}: Birman det/breadth differ from the verdict")
    entries = job["diagram"].get("pretzel")
    family = None
    if "family" in job:
        family = (job["family"], job["r"])
    elif entries and entries[0] == entries[1] == -entries[2] >= 3:
        family = ("C", entries[0])
    if family:
        report = montesinos.pretzel_family_report(*family)
        if (report.deg_q, report.det) != (rec["deg_q"], rec["det"]):
            out.append(
                f"{job['id']}: deg Q, det = {rec['deg_q']}, {rec['det']};"
                f" pretzel_family_report {family} gives {report.deg_q}, {report.det}"
            )


def pretzel_family_entries(family: str, r: int) -> tuple[int, int, int]:
    """The pretzel diagrams of the paper's families A, B and C."""
    return {"A": (r + 2, r + 1, -r), "B": (r + 1, r + 1, -r), "C": (r, r, -r)}[family]


def _check_pretzel_family(job, rec, out):
    crossings = sum(map(abs, pretzel_family_entries(job["family"], job["r"])))
    if rec["deg_q"] > crossings - 1:
        out.append(
            f"{job['id']}: deg Q = {rec['deg_q']} exceeds the bound c(D) - 1 ="
            f" {crossings - 1} (Brandt-Lickorish-Millett)"
        )


def _check_goeritz(job, rec, out):
    if "pretzel" in job:
        p, q, r = job["pretzel"]
        family = ("C", p) if p == q else ("A", -r)
        want = montesinos.pretzel_family_report(*family).det
    elif job["strands"] == 3 and len(job["word"]) <= BIRMAN_DET_MAX:
        want = _det(_birman(job["word"]))
    else:
        return
    if rec["det"] != want:
        out.append(f"{job['id']}: Goeritz det {rec['det']}, independent det {want}")


def _check_birman(job, rec, out):
    v = _birman(job["word"])
    if sha256(v.render_t()) != rec["sha256"]:
        out.append(f"{job['id']}: Birman Jones hash differs")
    if len(job["word"]) <= BIRMAN_DET_MAX:
        goeritz = jones.determinant_goeritz(diagram.close_braid(job["word"], 3))
        if _det(v) != goeritz:
            out.append(f"{job['id']}: Birman det {_det(v)}, Goeritz {goeritz}")


def _check_detf(job, rec, out):
    n = job["n"]
    if rec["det"] != rec["trees"] + (4 if n % 2 else 0):
        out.append(f"{job['id']}: det_formula {rec['det']}, trees {rec['trees']}")
    nf = braid3.B3NormalForm.family1(n, job["pairs"])
    goeritz = jones.determinant_goeritz(diagram.close_braid(braid3.to_word(nf)))
    if rec["det"] != goeritz:
        out.append(f"{job['id']}: det_formula {rec['det']}, Goeritz {goeritz}")


def _check_kanenobu(job, rec, out):
    det = kanenobu.KANENOBU_DET
    want = {
        "degree": kanenobu.kanenobu_degree(job["p"], job["q"]),
        "at_1": "1",
        "at_minus_2": "1",
        "at_2": str(det * det),
    }
    got = {k: rec[k] for k in want}
    if got != want:
        out.append(f"{job['id']}: {got}, independent values {want}")


_CHECKS = {
    "q": _check_q,
    "check": _check_verdict,
    "goeritz": _check_goeritz,
    "birman": _check_birman,
    "detf": _check_detf,
    "kanenobu": _check_kanenobu,
    "pretzel_family": _check_pretzel_family,
}


def check(workload: str, corpus: dict, expected: dict) -> list[str]:
    """Disagreements between ``expected`` and the independent sources."""
    out: list[str] = []
    for job in corpus["jobs"] + corpus["ramp"] + corpus.get("extras", []):
        rec = expected.get(job["id"])
        if rec is None:
            out.append(f"{workload}: no expected record for {job['id']}")
            continue
        fn = _CHECKS.get(job["kind"])
        if fn is not None:
            fn(job, rec, out)
    return out
