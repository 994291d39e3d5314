"""The benchmark in qaltbench/ reaches into qalt by name; every name it uses must exist.

A traced run resolves each target of ``LAYERS`` before it patches anything
and aborts on the first missing one, so deleting traced API would otherwise
show up only when someone runs the benchmark with tracing on.
"""

import runpy
from pathlib import Path

import qalt.poly

LAYERTRACE = Path(__file__).resolve().parents[1] / "qaltbench" / "layertrace.py"


def test_benchmark_targets_resolve():
    # run_path compiles from source and leaves qaltbench/ untouched
    layertrace = runpy.run_path(str(LAYERTRACE), run_name="layertrace")
    targets = [t for ts in layertrace["LAYERS"].values() for t in ts]
    assert targets
    for target in targets:
        layertrace["_resolve"](target)  # raises TraceError when missing
    # used by the benchmark's jobs and cross-checks, outside LAYERS
    assert callable(qalt.poly.HalfLaurent.render_t)
    assert callable(qalt.poly.breadth_t)
    assert callable(qalt.poly.eval_at_s_equals_i)
