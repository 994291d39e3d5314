"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest -q qaltbench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import crosscheck
import defects
import jobs
import layertrace
import run
from layertrace import LAYERS, TraceError, Tracer

HERE = Path(__file__).resolve().parent


def bindings() -> dict:
    """Every object a traced run may replace: each qalt module attribute and
    the class attributes named in LAYERS."""
    out = {}
    for m in layertrace.qalt_modules():
        for name, value in vars(m).items():
            out[(m.__name__, name)] = value
    for targets in LAYERS.values():
        for target in targets:
            owner, attr, raw = layertrace._resolve(target)
            if isinstance(owner, type):
                out[(owner.__qualname__, attr)] = raw
    return out


def sample(workload, every):
    corpus, expected = run.setup(workload)
    return corpus["jobs"][::every], expected


@pytest.mark.parametrize(
    "module, attr",
    [(jobs.jones, "orient"), (jobs.diagram.PDDiagram, "canonical_code")],
)
def test_tracing_fails_loudly_on_a_missing_function(monkeypatch, module, attr):
    before = bindings()
    monkeypatch.delattr(module, attr)
    tracer = Tracer()
    with pytest.raises(TraceError, match=attr):
        tracer.install()
    monkeypatch.undo()
    assert bindings() == before  # nothing was patched before the failure


def test_runs_leave_every_wrapped_function_identical():
    before = bindings()
    small, expected = sample("qa_scan", 25)
    out = run.run_passes(small, expected, 0, random.Random(1), run.Passes())
    assert out.failed == 0
    assert bindings() == before

    tracer = Tracer()
    try:
        tracer.install()
        assert bindings() != before
        run.run_passes(small, expected, 0, random.Random(1), run.Passes(), tracer)
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_layer_counts_split_the_workloads():
    def traced_pass(workload, every):
        small, expected = sample(workload, every)
        tracer = Tracer()
        try:
            tracer.install()
            out = run.run_passes(small, expected, 0, random.Random(2), run.Passes(), tracer)
        finally:
            tracer.uninstall()
        assert out.failed == 0
        return tracer.layer_metrics(1, out.pass_s[0], 0.0)

    scan = traced_pass("qa_scan", 20)
    assert scan["jones.bracket.calls_per_check"] == 2
    assert scan["qpoly.memo.lookups"] > 0
    assert scan["diagram.canonical_code.calls"] > 0
    big = traced_pass("big_forms", 40)
    assert big["diagram.canonical_code.calls"] == 0
    assert big["qpoly.memo.lookups"] == 0
    assert big["poly.mul.calls"] > 0


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    small, expected = sample("big_forms", 200)
    tracer = Tracer()
    try:
        tracer.install()
        out = run.run_passes(small, expected, 0, random.Random(3), run.Passes(), tracer)
    finally:
        tracer.uninstall()
    names = tracer.layer_metrics(1, out.pass_s[0], 0.0)
    assert {n: run.layer_unit(n) for n in names} == {
        m["name"]: m["unit"] for m in bench["per_layer"]
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_records_pass_the_cross_check(workload):
    corpus, expected = run.setup(workload)
    assert crosscheck.check(workload, corpus, expected) == []


@pytest.mark.xfail(strict=True, reason="qalt defect; see defects.py")
@pytest.mark.parametrize("name", defects.DEFECTS)
def test_known_defect_is_fixed(name):
    stands, detail = defects.DEFECTS[name]()
    assert not stands, detail


CHILD = """
import json, sys
sys.path.insert(0, {here!r})
import jobs, run
bad = []
for workload, every in (("q_alt3", 4), ("qa_scan", 10), ("big_forms", 20)):
    corpus, expected = run.setup(workload)
    for job in corpus["jobs"][::every]:
        if jobs.digest(job, jobs.compute(job)) != expected[job["id"]]:
            bad.append(job["id"])
print(json.dumps(bad))
"""


@pytest.mark.parametrize("hashseed", ["0", "4242"])
def test_expected_records_reproduce_under_another_hash_seed(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(here=str(HERE))],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
