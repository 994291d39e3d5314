"""How far each path of qalt scales within a CPU budget.

    python3 tools/scale.py [--budget 2] [--write TABLE]
    python3 tools/scale.py --budget 0.2 --check tools/scale_digests.json

Run from anywhere; it imports qalt from the ``src/`` beside this directory.
The paths:

- sweep: Q and the Kauffman bracket of the closure of (s1 s2^-1)^k, 2k
  crossings, reduced and alternating, so each is one frontier sweep;
- check: `obstruction_check` of three random 4-braid closures of k letters,
  the words drawn from ``random.Random(k)``;
- goeritz: `determinant_goeritz` of the reduced closure of (s1 s2^-1)^k.

Each path grows its size by a factor of sqrt 2 from a small start, size i
being round(start 2^(i/2)), so every second size doubles the one two before
it, and a size that lands near the budget moves the fit by sqrt 2, not 2.
A size runs in three fresh processes, so the sweep's caches start empty, and
each times one computation in CPU time, the diagrams built before the clock
starts; the size's time is the best of the three.  A path stops at the
first size whose time passes the budget.  The last line of standard output
is a JSON object: per path, the last size that fit and, per size, its time
and the sha256 digest of its output's text, the same in all three
processes.

With ``--check TABLE`` the run fails unless every digest it reached equals
the table's and each path reached at least two sizes of the table.  Before
that it recomputes, in this process, each sweep size of the table up to
k = 80 and checks the table's digest against it and Q(2) = det^2 and
|<D>(A^4 = -1)| = det against the Goeritz determinant, so a digest pins
values the identities vouch for.  ``--write TABLE`` records the digests of a
run as the table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import inf
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qalt import jones, qpoly  # noqa: E402
from qalt.diagram import close_braid, simplify  # noqa: E402

# the first size of each path; size i is round(start 2^(i/2))
STARTS = {"sweep": 10, "check": 25, "goeritz": 100}
VERIFY_MAX = 80  # the largest sweep size --check recomputes in-process
REPEATS = 3


def _inputs(path: str, k: int):
    """The diagrams of `path` at size `k`, built before the clock starts."""
    if path == "check":
        rng = random.Random(k)
        return [close_braid([rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(k)], 4) for _ in range(3)]
    d = close_braid([1, -2] * k, 3)
    return [simplify(d) if path == "goeritz" else d]


def _compute(path: str, ds) -> str:
    """The text of the output of `path` on its diagrams, integers in hex,
    which has no length limit."""
    if path == "sweep":
        (d,) = ds
        return "\n".join(_text(p) for p in (qpoly.q_polynomial(d, inf), jones.kauffman_bracket(d, inf)))
    if path == "check":
        verdicts = (jones.obstruction_check(d) for d in ds)
        return "\n".join(f"{v.verdict} {v.deg_q} {v.det:x} {v.breadth}" for v in verdicts)
    (d,) = ds
    return f"{len(d)} {jones.determinant_goeritz(d):x}"


def _text(p) -> str:
    """A Laurent polynomial as `exponent:coefficient` terms, ascending."""
    return " ".join(f"{e}:{c:x}" for e, c in sorted(p.items()))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def one(path: str, k: int) -> dict:
    """One timed computation of `path` at size `k`, in this process."""
    ds = _inputs(path, k)
    t0 = time.process_time()
    text = _compute(path, ds)
    return {"cpu_s": time.process_time() - t0, "sha256": _digest(text)}


def measure(path: str, k: int) -> dict:
    """The best CPU time of `REPEATS` fresh processes at size `k`, and the
    digest they agree on."""
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--one", path, str(k)], check=True, capture_output=True, text=True
        ).stdout
        runs.append(json.loads(out))
    digests = {r["sha256"] for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"{path} at {k}: {len(digests)} different outputs in {REPEATS} processes")
    return {"size": k, "cpu_s": round(min(r["cpu_s"] for r in runs), 4), "sha256": digests.pop()}


def scale(path: str, budget: float) -> dict:
    """The sizes of `path` from its start, growing by sqrt 2, through the
    first one over `budget`."""
    steps = []
    i = 0
    while not steps or steps[-1]["cpu_s"] <= budget:
        steps.append(measure(path, round(STARTS[path] * 2 ** (i / 2))))
        i += 1
    return {"fit": steps[-2]["size"] if len(steps) > 1 else None, "steps": steps}


def verify(table: dict) -> list[str]:
    """The faults of `table` at the small sweep sizes: a digest that is not
    that of this process's output, or a Q or bracket whose evaluation
    disagrees with the Goeritz determinant."""
    faults = []
    for key, want in table["sweep"].items():
        k = int(key)
        if k > VERIFY_MAX:
            continue
        (d,) = _inputs("sweep", k)
        if _digest(_compute("sweep", [d])) != want:
            faults.append(f"sweep {k}: the table's digest is not that of this output")
        det = jones.determinant_goeritz(d)
        q2 = sum(Fraction(2) ** e * c for e, c in qpoly.q_polynomial(d, inf).items())
        if q2 != det**2:
            faults.append(f"sweep {k}: Q(2) = {q2}, det^2 = {det ** 2}")
        if jones._det_and_breadth(jones.kauffman_bracket(d, inf))[0] != det:
            faults.append(f"sweep {k}: the bracket's det differs from the Goeritz determinant {det}")
    return faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--budget", type=float, default=2.0, help="CPU seconds per size (default 2)")
    ap.add_argument("--check", type=Path, help="a digest table every reached size must match")
    ap.add_argument("--write", type=Path, help="write the run's digests as a table")
    ap.add_argument("--one", nargs=2, metavar=("PATH", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.one[0], int(args.one[1]))))
        return 0
    table = json.loads(args.check.read_text()) if args.check else None
    faults = verify(table) if table else []
    report = {"budget_s": args.budget, "python": sys.version.split()[0], "paths": {}}
    for path in STARTS:
        report["paths"][path] = result = scale(path, args.budget)
        if table:
            pinned = table.get(path, {})
            checked = [s for s in result["steps"] if str(s["size"]) in pinned]
            faults += [
                f"{path} {s['size']}: digest {s['sha256']}, table {pinned[str(s['size'])]}"
                for s in checked
                if s["sha256"] != pinned[str(s["size"])]
            ]
            if len(checked) < 2:
                faults.append(f"{path}: {len(checked)} sizes of the table reached, fewer than 2")
            result["checked"] = len(checked)
    if args.write:
        digests = {p: {str(s["size"]): s["sha256"] for s in r["steps"]} for p, r in report["paths"].items()}
        args.write.write_text(json.dumps(digests, indent=1) + "\n")
    report["faults"] = faults
    print(json.dumps(report))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
