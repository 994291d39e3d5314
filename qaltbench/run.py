"""The qalt benchmark: one workload, one seed, one run.

    python3 qaltbench/run.py --workload q_alt3 --seed 1 --seconds 30 --trace 0

Run from the repository root; it imports qalt from ``src/``.  The load is a
closed loop in one thread: one job at a time, the next starting when the
previous one ends.  Jobs run in whole passes over the workload's corpus, in
an order drawn from ``--seed``, and a new pass starts only while it is
expected to end within ``--seconds``.  Every result is compared with the
checked-in expected record, and the expected file is cross-checked against
independent sources once per run, outside the timed loop.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time, jobs
per second, median and 90th-percentile job latency (each job's median over
the passes, at the reference speed of calibrate.py), peak RSS, and the largest
ramp step that finishes within its per-link budget.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
layertrace.py.  The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics; a result file with the
environment goes to ``qaltbench/results/``.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("q_alt3", "qa_scan", "big_forms")
SETUP_PROBES = 7
RAMP_ATTEMPTS = 2
RAMP_LIMIT = 1.25
# Time of the speed probe (calibrate.py) on the reference host; job times
# are reported at this speed.  On a 2-core shared host the speed of
# dict-and-object code swings by up to 1.8x over tens of seconds, and the
# probe swings with it (NOTES.md).
CALIBRATION_REF_S = 0.013
CALIBRATE_EVERY_S = 0.3
PASS_PROBES = 5

UNITS = {
    "setup_s": "s",
    "links_per_s": "1/s",
    "link_s.p50": "s",
    "link_s.p90": "s",
    "peak_rss_mb": "MB",
    "max_crossings": "crossings",
}


def setup(workload: str):
    """Import qalt and load the workload's corpus and expected records.

    This is what ``setup_s`` times, in a fresh interpreter."""
    import jobs  # noqa: F401  (imports qalt from the checkout's src/)

    corpus = json.loads((HERE / "corpus" / f"{workload}.json").read_text())
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())["records"]
    return corpus, expected


def measure_setup(workload: str, calibrator) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, from spawn to ready for the first
    job, and the mean of the speed probes taken just before and after each."""
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        before = calibrator.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = probe.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
        probes.append((before + calibrator.probe()) / 2)
    return times, probes


@dataclass
class Passes:
    """Latencies per job id, pass wall times and failures of a run."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)  # speed probes, s
    # Per job id and sample: index into calibration of the last probe before it.
    probe_before: dict[str, list[int]] = field(default_factory=dict)

    def scaled(self) -> dict[str, list[float]]:
        """Latencies at the reference speed.  Each sample is scaled by the
        mean of the probes just before and just after it, which follow the
        machine's speed swings of seconds."""
        probes = self.calibration
        return {
            job_id: [t * 2 * CALIBRATION_REF_S / (probes[k] + probes[k + 1])
                     for t, k in zip(samples, self.probe_before[job_id])]
            for job_id, samples in self.latencies.items()
        }

    def typical(self) -> list[float]:
        """Each job's median scaled latency over the passes.  The minimum
        would pick the sample whose probes read slowest, so the median is
        the steadier of the two."""
        return [statistics.median(v) for v in self.scaled().values()]


class Calibrator:
    """The speed probe of calibrate.py, in a child process."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def probe(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_passes(jobs_list, expected, seconds: float, rng: random.Random, out: Passes,
               tracer=None, calibrator: Calibrator | None = None):
    """Closed loop over whole passes of the corpus; at least one pass.

    With a calibrator, a speed probe runs between jobs every CALIBRATE_EVERY_S
    and once more at the end, so that every sample lies between two probes."""
    import jobs

    t_start = time.perf_counter()
    last_probe = float("-inf")
    while True:
        order = list(range(len(jobs_list)))
        rng.shuffle(order)
        p0 = time.perf_counter()
        for i in order:
            job = jobs_list[i]
            if calibrator is not None and time.perf_counter() - last_probe > CALIBRATE_EVERY_S:
                out.calibration.append(calibrator.probe())
                last_probe = time.perf_counter()
            if tracer is not None:
                tracer.current_job = i
            out.probe_before.setdefault(job["id"], []).append(len(out.calibration) - 1)
            samples = out.latencies.setdefault(job["id"], [])
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                value = jobs.compute(job)
            except Exception:  # a failed job is counted, the run goes on
                samples.append(time.perf_counter() - t0)
                out.failed += 1
                out.errors.append(f"{job['id']}: {traceback.format_exc(limit=3)}")
                continue
            samples.append(time.perf_counter() - t0)
            if jobs.digest(job, value) != expected[job["id"]]:
                out.failed += 1
                out.errors.append(f"{job['id']}: result differs from the expected record")
        out.pass_s.append(time.perf_counter() - p0)
        if time.perf_counter() - t_start + out.pass_s[-1] > seconds:
            if calibrator is not None:
                out.calibration.append(calibrator.probe())
            return out


class _OverBudget(BaseException):
    """Raised by the ramp's alarm; not an Exception, so qalt cannot swallow it."""


def within_limit(job: dict, limit_s: float):
    """The job's value and wall time, or None if it does not finish within
    ``limit_s``."""
    import jobs

    armed = True

    def alarm(signum, frame):
        if armed:
            raise _OverBudget

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            t0 = time.perf_counter()
            value = jobs.compute(job)
            elapsed = time.perf_counter() - t0
            armed = False
            return value, elapsed
        except _OverBudget:
            return None
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ramp(corpus: dict, expected: dict, errors: list[str], calibrator: Calibrator) -> int:
    """Crossings of the largest ramp step whose time, at the reference speed,
    is within the budget in one of RAMP_ATTEMPTS attempts.  An attempt's time
    is scaled by the mean of the median of PASS_PROBES speed probes just
    before it and that of PASS_PROBES just after it.  An alarm stops an
    attempt at RAMP_LIMIT times the budget, put at the speed before it."""
    import jobs

    def speed() -> float:
        return statistics.median(calibrator.probe() for _ in range(PASS_PROBES))

    budget = corpus["ramp_budget_s"]
    best = 0
    for step in corpus["ramp"]:
        for _ in range(RAMP_ATTEMPTS):
            before = speed()
            done = within_limit(step, RAMP_LIMIT * budget * before / CALIBRATION_REF_S)
            if done is None:
                continue
            value, elapsed = done
            if elapsed * 2 * CALIBRATION_REF_S / (before + speed()) <= budget:
                break
        else:
            break
        if jobs.digest(step, value) != expected[step["id"]]:
            errors.append(f"{step['id']}: result differs from the expected record")
        best = step["crossings"]
    return best


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit_hash(),
        "src_sha256": source_hash(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workload": args.workload,
    }


def source_hash() -> str:
    """sha256 over src/qalt's files, which names the code also without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qalt").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_hash() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def untraced_run(args, corpus, expected, out: Passes):
    with Calibrator() as calibrator:
        setup_times, setup_probes = measure_setup(args.workload, calibrator)
        run_passes(corpus["jobs"], expected, args.seconds, random.Random(args.seed), out,
                   calibrator=calibrator)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        max_crossings = ramp(corpus, expected, out.errors, calibrator)
    raw = [statistics.median(v) for v in out.latencies.values()]
    best = out.typical()
    metrics = {
        "setup_s": statistics.median(
            t * CALIBRATION_REF_S / p for t, p in zip(setup_times, setup_probes)
        ),
        "links_per_s": len(best) / sum(best),
        "link_s.p50": statistics.median(best),
        "link_s.p90": percentile(best, 90),
        "peak_rss_mb": peak_rss_mb,
        "max_crossings": max_crossings,
    }
    detail = {
        "raw_at_this_speed": {
            "links_per_s": len(raw) / sum(raw),
            "link_s.p50": statistics.median(raw),
            "link_s.p90": percentile(raw, 90),
        },
        "setup_probes_s": setup_times,
        "setup_speed_probes_s": setup_probes,
        "calibration_s": out.calibration,
        "pass_s": out.pass_s,
        "latency_s": out.latencies,
        "probe_before": out.probe_before,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, detail


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("calls_per_check"):
        return "calls/check"
    return "count"


def traced_run(args, corpus, expected, out: Passes):
    """Untraced and traced passes in turn, at least one of each.  Each pass's
    job time is put at reference speed by the median of PASS_PROBES speed
    probes taken just before it, so that the machine's swings stay out of
    trace.overhead_frac."""
    from layertrace import Tracer

    rng = random.Random(args.seed)
    tracer = Tracer()
    job_s = {False: [], True: []}  # traced? -> job time per pass, reference speed
    traced_raw_s = 0.0
    t_start = time.perf_counter()
    with Calibrator() as calibrator:
        while True:
            for traced in (False, True):
                probes = [calibrator.probe() for _ in range(PASS_PROBES)]
                one = Passes()
                try:
                    if traced:
                        tracer.install()
                    run_passes(corpus["jobs"], expected, 0, rng, one, tracer if traced else None)
                finally:
                    tracer.uninstall()
                raw = sum(map(sum, one.latencies.values()))
                job_s[traced].append(raw * CALIBRATION_REF_S / statistics.median(probes))
                traced_raw_s += raw if traced else 0.0
                out.attempted += one.attempted
                out.failed += one.failed
                out.errors += one.errors
                out.pass_s += one.pass_s
            pairs = len(job_s[True])
            if (time.perf_counter() - t_start) * (pairs + 1) / pairs > args.seconds:
                break
    overhead = statistics.mean(job_s[True]) / statistics.mean(job_s[False]) - 1
    metrics = tracer.layer_metrics(pairs, traced_raw_s / pairs, overhead)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}.bin"
    tracer.write(spans, {"workload": args.workload, "seed": args.seed, "passes": pairs})
    out_metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}
    detail = {"traced_passes": pairs, "spans": len(tracer.start), "span_file": spans.name,
              "job_s_per_pass": {"untraced": job_s[False], "traced": job_s[True]}}
    return out_metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        corpus, expected = setup(args.workload)
    except (ImportError, OSError) as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 2
    import crosscheck

    out = Passes()
    if args.trace:
        metrics, detail = traced_run(args, corpus, expected, out)
    else:
        metrics, detail = untraced_run(args, corpus, expected, out)
    problems = crosscheck.check(args.workload, corpus, expected)
    for line in out.errors[:20] + problems[:20]:
        print(f"error: {line}", file=sys.stderr)
    correct = out.failed == 0 and not out.errors and not problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {out.attempted}  passes {len(out.pass_s)}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':34s} {out.failed / out.attempted:.6g} ratio "
          f"({out.failed}/{out.attempted})")
    print(f"{'cross-check':34s} {'ok' if not problems else f'{len(problems)} disagreements'}")

    record = {
        "environment": environment(args),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_frac": out.failed / out.attempted,
        "crosscheck_disagreements": problems,
        "metrics": metrics,
        **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
