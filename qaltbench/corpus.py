"""The benchmark corpus, written out explicitly, and its expected results.

Run ``python3 qaltbench/corpus.py`` from the repository root to rewrite
``corpus/<workload>.json`` from the definitions below, compute every job once
with the qalt in ``src/`` (memoizing on an exact key, see exact_memo_key),
cross-check those results against independent sources (crosscheck.py) and
write ``expected/<workload>.json``.  Jobs on which qalt as it stands gives
another result are printed.

Nothing here is random: the corpus is the same for every run, and a run's
``--seed`` only permutes the order of its jobs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
from pathlib import Path

import crosscheck
from jobs import braid3, build, compute, diagram, digest

HERE = Path(__file__).resolve().parent

# -- q_alt3: Q on alternating closed 3-braids, 12-18 crossings -------------

# Syllables (a, b) of s1^a s2^-b.  Listed one by one because the cost at one
# crossing count varies 16x with the syllable structure.
Q_ALT3_SYLLABLES = [
    [(6, 6)],
    [(7, 7)],
    [(9, 9)],
    [(10, 8)],
    [(3, 3), (3, 3)],
    [(4, 3), (3, 4)],
    [(4, 4), (4, 4)],
    [(5, 4), (4, 5)],
    [(2, 2), (2, 2), (2, 2)],
    [(2, 3), (3, 2), (2, 2)],
    [(3, 3), (3, 3), (3, 3)],
    [(2, 1), (1, 2), (2, 1), (1, 2)],
    [(2, 2), (2, 1), (1, 2), (1, 3)],
    [(3, 3), (2, 2), (2, 1), (1, 2)],
    [(2, 2), (2, 2), (2, 2), (3, 3)],
]

# The ramps behind max_crossings: each step must finish within the budget,
# which sits near the geometric mean of the last step that passes and the
# first that fails on a 2-core 2.x GHz Xeon, so that run-to-run noise does
# not move the result.
Q_RAMP_K = range(4, 12)  # (s1 s2^-1)^k: 8, 10, ..., 22 crossings
Q_RAMP_BUDGET_S = 1.8
QA_RAMP_N = (3, 5, 7, 10, 12)  # P(n, n, -n): 9, 15, 21, 30, 36 crossings
QA_RAMP_BUDGET_S = 1.25
BIG_RAMP_CROSSINGS = (100, 200, 300, 450, 600, 800)  # (s1 s2^-1)^(c/2) as PD text
BIG_RAMP_BUDGET_S = 0.6

# -- qa_scan: the obstruction check on a few hundred small links -----------

PRETZEL_ENTRIES = [v for v in range(-4, 5) if v]
BALDWIN_N = (-1, 0, 1, 2)  # normal forms of 6-12 crossings, plus BALDWIN_LARGE
BALDWIN_PAIRS = [
    ((1, 1),),
    ((2, 1),),
    ((2, 2),),
    ((3, 2),),
    ((3, 3),),
    ((4, 2),),
    ((1, 1), (1, 1)),
    ((2, 1), (1, 2)),
    ((2, 2), (1, 1)),
    ((2, 2), (2, 2)),
    ((1, 1), (1, 1), (1, 1)),
    ((2, 1), (1, 1), (1, 2)),
]
BALDWIN_LARGE = [  # the few of 13 and 14 crossings
    ("family2", 2, 1),
    ("family1", 2, ((1, 1),)),
    ("family1", 1, ((2, 2), (2, 2))),
]
FOUR_STRAND_WORDS = [
    [1, -2, 3, 1, -2, 3],
    [1, -2, 3, -2, 1, -2, 3, -2],
    [1, -2, 3, 1, -2, 3, 1, -2, 3],
    [1, 1, -2, 3, 3, -2],
    [1, 1, -2, 3, 3, -2, 1, -2],
    [1, -2, -2, 3, 1, -2, 3],
    [1, 2, 3, 1, 2, 3],
    [1, 2, 3, 1, 2, 3, 1, 2, 3],
    [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
    [1, -2, 1, 3, -2, 3],
    [1, 1, 1, -2, 3, 3, 3, -2],
    [-1, 2, -3, 2, -1, 2, -3, 2],
    [1, 2, -3, 2, 1, 2, -3, 2],
    [1, 2, 2, -3, 1, 2, 2, -3],
    [1, -2, 3, 3, -2, 1, -2, 3, 3, -2],
    [1, 2, -1, 3, -2, 3],
    [1, 2, -1, 2, 3, -2, 3],
    [1, 1, 2, -1, 2, 3, -2, 3, 3],
    [1, -2, 1, -2, 3, -2, 3, -2],
    [1, 1, -2, -2, 3, 3, -2, -2],
    [2, 1, 3, 2, 2, 1, 3, 2],
    [1, -3, 2, 1, -3, 2, 1, -3, 2],
    [1, 1, -2, 1, 3, -2, 3, 3],
    [1, -2, 3, -2, 1, -2, 3, -2, 1, -2, 3, -2],
]
# Bases for the non-reduced variants, which carry R2 bigons, R1 kinks or both.
NONREDUCED_BASES = [
    [1, -2, 1, -2],
    [1, 1, -2, 1, -2],
    [1, 1, 1, -2, -2],
    [1, -2, 1, -2, 1, -2],
    [1, 1, -2, -2, 1, -2],
    [1, 1, 1, -2, 1, -2, -2],
    [1, 2, 1, 2, 1],
    [1, 1, 2, -1, 2],
    [1, -2, 1, 1, -2, -2, 1, -2],
    [1, 1, 1, 1, 1, -2],
]
# Small knots and links for the composite and split diagrams.
SMALL_LINKS = {
    "3_1": {"braid": [1, 1, 1], "strands": 2},
    "4_1": {"braid": [1, -2, 1, -2], "strands": 3},
    "5_1": {"braid": [1, 1, 1, 1, 1], "strands": 2},
    "5_2": {"pretzel": [3, 1, 1]},
    "6_1": {"pretzel": [4, 1, 1]},
    "hopf": {"braid": [1, 1], "strands": 2},
    "L4a1": {"braid": [1, 1, 1, 1], "strands": 2},
    "P(2,2,-2)": {"pretzel": [2, 2, -2]},
    "P(3,-2,2)": {"pretzel": [3, -2, 2]},
}
COMPOSITES = [
    ("3_1", "3_1"),
    ("3_1", "4_1"),
    ("4_1", "4_1"),
    ("3_1", "5_1"),
    ("4_1", "5_2"),
    ("5_2", "5_2"),
    ("3_1", "6_1"),
    ("hopf", "4_1"),
    ("hopf", "L4a1"),
    ("L4a1", "5_1"),
    ("P(2,2,-2)", "3_1"),
    ("P(3,-2,2)", "4_1"),
]
SPLITS = [
    ("3_1", "4_1", 0),
    ("4_1", "4_1", 0),
    ("3_1", "5_2", 1),
    ("hopf", "5_1", 0),
    ("5_2", "6_1", 0),
    ("4_1", "L4a1", 2),
    ("P(2,2,-2)", "hopf", 1),
    ("3_1", "3_1", 1),
]
FREE_LOOP_BASES = [("4_1", 1), ("5_2", 2), ("P(3,-2,2)", 1), ("6_1", 1)]

# -- big_forms: the polynomial-time paths at 100-400 crossings -------------

GOERITZ_WORDS = [
    ("alt3-100", [1, -2] * 50, 3),
    ("alt3-200", [1, -2] * 100, 3),
    ("alt3-300", [1, -2] * 150, 3),
    ("alt3-400", [1, -2] * 200, 3),
    ("mixed4-200", [1, -2, 3, -2, 1, 2, -3, 2] * 25, 4),
    # Non-reduced: a bigon after every syllable, and one kink on strand 4.
    ("bigons3-300", [1, -2, 2, -2, 1, 1, -1, -2] * 37 + [1, -2, 1, -2], 3),
    ("bigons-kink4-400", ([1, 1, -1, -2, 2, -2] * 66) + [1, -2, 3, -2], 4),
]
GOERITZ_PRETZELS = [(40, 40, -40), (31, 30, -29)]
BIRMAN_WORDS = [
    ("b100", ([1, 1, -2] * 40)[:100]),
    ("b200", ([1, -2] * 100)),
    ("b300", ([1, 2, 1, -2, -2] * 60)),
    ("b400", ([1, 1, 1, -2, -2, 1, -2, -2] * 50)),
    ("b600", ([1, -2, -2, 1, 1, -2] * 100)),
]
DET_FORMULA_FORMS = [
    (1, [(2, 1)] * 8),
    (0, [(1, 2), (2, 1)] * 5),
    # A cyclic order equal to its reverse: det_formula is wrong on many forms
    # whose order differs from its reverse (defects.py), so those stay out.
    (-1, [(1, 1), (2, 3), (3, 1), (3, 1), (2, 3), (1, 1)] * 2),
    (2, [(1, 1)] * 14),
    (1, [(3, 2), (1, 1)] * 7),
    (0, [(2, 2)] * 13),
]
KANENOBU_RANGE = range(-20, 21)
MONTESINOS = [
    ([(3, 1), (5, 2)], (7, 3)),
    ([(2, 1), (3, 1)], (5, 2)),
    ([(2, 1), (3, 2)], (5, 1)),
    ([(3, 2), (5, 3)], (7, 2)),
    ([(5, 2), (7, 3), (4, 1)], (3, 1)),
    ([(2, 1), (2, 1)], (3, 1)),
    ([(3, 1), (3, 1), (3, 1)], (2, 1)),
    ([(7, 4), (9, 5)], (11, 3)),
    ([(4, 3), (5, 4)], (6, 5)),
    ([(13, 5), (8, 3)], (21, 8)),
    ([(2, 1), (5, 3), (7, 2)], (9, 4)),
    ([(11, 7), (6, 5)], (4, 1)),
]
COROLLARY26 = [
    ([(2, 1), (2, 1)], 1, 0),
    ([(3, 1), (3, 2)], 2, 1),
    ([(3, 1), (3, 1), (3, 1)], 3, 1),
    ([(4, 1), (4, 3)], 3, 2),
    ([(2, 1), (4, 1), (4, 1)], 5, 3),
    ([(2, 1), (3, 1), (6, 1)], 1, 0),
]
COROLLARY26_K = (1, 5, 20, 60)
# Family B is left out: pretzel_family_report("B", r) breaks the deg Q bound
# (defects.py).
PRETZEL_FAMILY_R = {"A": range(5, 42, 2), "C": range(3, 41)}
# The first members of each family, run once through obstruction_check (not
# timed) so that the closed forms above can be cross-checked with the engine.
PRETZEL_FAMILY_EXTRAS = [("A", 5), ("C", 3), ("C", 4), ("C", 5)]


def syllable_word(syllables) -> list[int]:
    word: list[int] = []
    for a, b in syllables:
        word += [1] * a + [-2] * b
    return word


def word_name(word, strands: int) -> str:
    """Run-length name of a braid word, e.g. ``B3:s1^2s2^-1``."""
    parts = []
    for g, run in itertools.groupby(word):
        n = len(list(run))
        power = -n if g < 0 else n
        parts.append(f"s{abs(g)}" + (f"^{power}" if power != 1 else ""))
    return f"B{strands}:" + "".join(parts)


def braid(word, strands: int) -> dict:
    return {"braid": list(word), "strands": strands}


def split_pd(first: dict, second: dict, loops: int) -> str:
    """PD text of two diagrams side by side, plus free loops."""
    d1, d2 = build(first), build(second)
    shift = max(d1.ends)
    shifted = diagram.PDDiagram([tuple(a + shift for a in t) for t in d2.crossings])
    text = diagram.render_pd(d1) + ";" + diagram.render_pd(shifted)
    return text + (f";O({loops})" if loops else "")


def q_alt3() -> dict:
    jobs = []
    for syllables in Q_ALT3_SYLLABLES:
        word = syllable_word(syllables)
        jobs.append({"id": word_name(word, 3), "kind": "q", "diagram": braid(word, 3)})
    steps = []
    for k in Q_RAMP_K:
        word = [1, -2] * k
        steps.append(
            {"id": f"ramp:{word_name(word, 3)}", "kind": "q", "crossings": 2 * k,
             "diagram": braid(word, 3)}
        )
    return {"jobs": jobs, "ramp_budget_s": Q_RAMP_BUDGET_S, "ramp": steps}


def qa_scan() -> dict:
    jobs = []
    pretzels = sorted(
        {
            tuple(sorted(c, reverse=True))
            for c in itertools.product(PRETZEL_ENTRIES, repeat=3)
            if 6 <= sum(map(abs, c)) <= 12
        }
    )
    for entries in pretzels:
        jobs.append({"id": f"P{entries}".replace(" ", ""), "kind": "check",
                     "diagram": {"pretzel": list(entries)}})
    baldwin = []
    for n in BALDWIN_N:
        forms = [braid3.B3NormalForm.family1(n, pairs) for pairs in BALDWIN_PAIRS]
        forms += [braid3.B3NormalForm.family2(n, m) for m in (-3, -2, -1, 1, 2, 3)]
        forms += [braid3.B3NormalForm.family3(n, m) for m in (-1, -2, -3)]
        baldwin += [nf for nf in forms if 6 <= len(braid3.to_word(nf).letters) <= 12]
    baldwin += [getattr(braid3.B3NormalForm, f)(n, x) for f, n, x in BALDWIN_LARGE]
    for nf in baldwin:
        name = f"baldwin:f{nf.family},n={nf.n}," + (
            f"{list(nf.pairs)}" if nf.family == 1 else f"m={nf.m}"
        )
        jobs.append({"id": name.replace(" ", ""), "kind": "check",
                     "diagram": braid(braid3.to_word(nf).letters, 3)})
    for word in FOUR_STRAND_WORDS:
        jobs.append({"id": word_name(word, 4), "kind": "check", "diagram": braid(word, 4)})
    for base in NONREDUCED_BASES:
        k = len(base) // 2
        variants = [
            ("bigon", base[:k] + [2, -2] + base[k:], 3),
            ("kink", base + [3], 4),
            ("bigon+kink", base[:k] + [-1, 1] + base[k:] + [-3], 4),
        ]
        for tag, word, strands in variants:
            jobs.append({"id": f"{tag}:{word_name(word, strands)}", "kind": "check",
                         "diagram": braid(word, strands)})
    for a, b in COMPOSITES:
        jobs.append({"id": f"sum:{a}#{b}", "kind": "check",
                     "diagram": {"sum": [SMALL_LINKS[a], SMALL_LINKS[b]], "arcs": [1, 1]}})
    for a, b, loops in SPLITS:
        pd = split_pd(SMALL_LINKS[a], SMALL_LINKS[b], loops)
        jobs.append({"id": f"split:{a}+{b}+O({loops})", "kind": "check",
                     "diagram": {"pd": pd}})
    for a, loops in FREE_LOOP_BASES:
        pd = diagram.render_pd(build(SMALL_LINKS[a])) + f";O({loops})"
        jobs.append({"id": f"split:{a}+O({loops})", "kind": "check", "diagram": {"pd": pd}})
    steps = [
        {"id": f"ramp:P({n},{n},{-n})", "kind": "check", "crossings": 3 * n,
         "diagram": {"pretzel": [n, n, -n]}}
        for n in QA_RAMP_N
    ]
    return {"jobs": jobs, "ramp_budget_s": QA_RAMP_BUDGET_S, "ramp": steps}


def big_forms() -> dict:
    jobs = []
    for name, word, strands in GOERITZ_WORDS:
        pd = diagram.render_pd(diagram.close_braid(word, strands))
        jobs.append({"id": f"goeritz:{name}", "kind": "goeritz", "word": word,
                     "strands": strands, "diagram": {"pd": pd}})
    for entries in GOERITZ_PRETZELS:
        pd = diagram.render_pd(diagram.generate_pretzel(entries))
        jobs.append({"id": f"goeritz:P{entries}".replace(" ", ""), "kind": "goeritz",
                     "pretzel": list(entries), "diagram": {"pd": pd}})
    for name, word in BIRMAN_WORDS:
        jobs.append({"id": f"birman:{name}", "kind": "birman", "word": word})
    for n, pairs in DET_FORMULA_FORMS:
        jobs.append({"id": f"detf:n={n},pairs={len(pairs)}", "kind": "detf", "n": n,
                     "pairs": [list(p) for p in pairs]})
    for p in KANENOBU_RANGE:
        for q in KANENOBU_RANGE:
            jobs.append({"id": f"K({p},{q})", "kind": "kanenobu", "p": p, "q": q})
    for tangles, final in MONTESINOS:
        jobs.append({"id": f"M(1;{tangles},{final})".replace(" ", ""), "kind": "montesinos",
                     "tangles": [list(t) for t in tangles], "final": list(final)})
    for tangles, beta, l in COROLLARY26:
        for k in COROLLARY26_K:
            jobs.append({"id": f"cor26:{tangles},beta={beta},l={l},k={k}".replace(" ", ""),
                         "kind": "corollary26", "tangles": [list(t) for t in tangles],
                         "beta": beta, "l": l, "k": k})
    for family, rs in PRETZEL_FAMILY_R.items():
        for r in rs:
            jobs.append({"id": f"family{family}:r={r}", "kind": "pretzel_family",
                         "family": family, "r": r})
    steps = []
    for c in BIG_RAMP_CROSSINGS:
        word = [1, -2] * (c // 2)
        pd = diagram.render_pd(diagram.close_braid(word, 3))
        steps.append({"id": f"ramp:alt3-{c}", "kind": "goeritz", "crossings": c,
                      "word": word, "strands": 3, "diagram": {"pd": pd}})
    extras = [
        {"id": f"engine:family{fam}:r={r}", "kind": "check", "family": fam, "r": r,
         "diagram": {"pretzel": list(crosscheck.pretzel_family_entries(fam, r))}}
        for fam, r in PRETZEL_FAMILY_EXTRAS
    ]
    return {"jobs": jobs, "ramp_budget_s": BIG_RAMP_BUDGET_S, "ramp": steps,
            "extras": extras}


WORKLOADS = {"q_alt3": q_alt3, "qa_scan": qa_scan, "big_forms": big_forms}


@contextlib.contextmanager
def exact_memo_key():
    """Within the block, Q and the bracket memoize on the diagram itself.

    Two diagrams with equal crossing tuples and loop counts are the same
    diagram, so this key cannot collide; the canonical_code key can, and then
    returns the Q of another diagram.  Expected values come from this key, so
    that they hold for any correct engine."""
    original = diagram.PDDiagram.canonical_code
    diagram.PDDiagram.canonical_code = lambda d: (d.crossings, d.free_loops)
    try:
        yield
    finally:
        diagram.PDDiagram.canonical_code = original


def all_jobs(corpus: dict) -> list[dict]:
    """Every job with an expected result: timed jobs, ramp steps and extras."""
    return corpus["jobs"] + corpus["ramp"] + corpus.get("extras", [])


def write_json(path: Path, data: dict) -> None:
    """JSON with one job or record per line, so that diffs stay readable."""
    fields = []
    for key, value in data.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(v) for v in value)
            fields.append(f" {json.dumps(key)}: [\n{body}\n ]")
        elif isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            fields.append(f" {json.dumps(key)}: {{\n{body}\n }}")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(fields) + "\n}\n")


def main() -> int:
    """Write every workload's files; exit 1 if a cross-check disagrees."""
    status = 0
    for name, make in WORKLOADS.items():
        corpus = make()
        ids = [job["id"] for job in all_jobs(corpus)]
        if len(ids) != len(set(ids)):
            raise SystemExit(f"{name}: duplicate job ids")
        expected = {}
        for job in all_jobs(corpus):
            with exact_memo_key():
                expected[job["id"]] = digest(job, compute(job))
            if digest(job, compute(job)) != expected[job["id"]]:
                print(f"{name}: {job['id']}: the canonical_code memo key gives"
                      " another result", flush=True)
        write_json(HERE / "corpus" / f"{name}.json", corpus)
        write_json(HERE / "expected" / f"{name}.json", {"records": expected})
        problems = crosscheck.check(name, corpus, expected)
        print(f"{name}: {len(corpus['jobs'])} jobs, {len(problems)} cross-check"
              " disagreements", flush=True)
        for line in problems:
            print(f"{name}: {line}", flush=True)
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
