"""Layer spans recorded from outside qalt, by wrapping its public functions.

``LAYERS`` names, per layer, the functions that mark its boundary.  Every
name is resolved before anything is patched, so a function renamed or
removed in qalt fails the traced run instead of reporting zero for its
layer.  A module-level function is replaced at every qalt module binding
that holds it (``qalt.qpoly.simplify`` as well as ``qalt.diagram.simplify``);
a method is replaced on its class.  :meth:`Tracer.uninstall` puts every
original object back.

A span is (function, start, end, parent span, job).  Spans live in flat
arrays while the run lasts and are written out once, at the end.  A layer's
self time is the time inside its spans minus the time inside their child
spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = {
    "diagram.canonical_code": ("qalt.diagram:PDDiagram.canonical_code",),
    "diagram.build": (
        "qalt.diagram:parse_pd",
        "qalt.diagram:close_braid",
        "qalt.diagram:generate_pretzel",
        "qalt.diagram:connected_sum",
    ),
    "diagram.construct": ("qalt.diagram:PDDiagram.__init__",),
    "diagram.simplify": ("qalt.diagram:simplify",),
    "diagram.moves": ("qalt.diagram:smooth", "qalt.diagram:switch", "qalt.diagram:mirror"),
    "qpoly.recursion": ("qalt.qpoly:q_polynomial", "qalt.qpoly:q_degree"),
    "jones.bracket": ("qalt.jones:kauffman_bracket",),
    "jones.orient": ("qalt.jones:orient",),
    "jones.goeritz": ("qalt.jones:determinant_goeritz",),
    "jones.check": (
        "qalt.jones:obstruction_check",
        "qalt.jones:jones_polynomial",
        "qalt.jones:determinant",
        "qalt.jones:breadth",
    ),
    "poly": tuple(
        f"qalt.poly:{cls}.{op}"
        for cls in ("IntLaurent", "HalfLaurent")
        for op in ("__add__", "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__")
    )
    + (
        "qalt.poly:IntLaurent.__rsub__",
        "qalt.poly:IntLaurent.__pow__",
        "qalt.poly:IntLaurent.shift",
        "qalt.poly:HalfLaurent.from_t",
        "qalt.poly:sigma",
        "qalt.poly:chebyshev_S",
        "qalt.poly:eval_at_s_equals_i",
        "qalt.poly:breadth_t",
    ),
    "intmat.det": ("qalt.intmat:int_det",),
    "braid3": (
        "qalt.braid3:birman_jones",
        "qalt.braid3:burau",
        "qalt.braid3:to_word",
        "qalt.braid3:det_formula",
        "qalt.braid3:tutte_graph",
        "qalt.braid3:spanning_tree_count",
        "qalt.braid3:B3NormalForm.family1",
    ),
    "kanenobu": ("qalt.kanenobu:kanenobu_q", "qalt.kanenobu:kanenobu_degree"),
    "montesinos": (
        "qalt.montesinos:MontesinosPresentation.make",
        "qalt.montesinos:montesinos_det",
        "qalt.montesinos:montesinos_crossing_number",
        "qalt.montesinos:predicted_q_degree",
        "qalt.montesinos:standard_form_check",
        "qalt.montesinos:corollary26_obstruction",
        "qalt.montesinos:pretzel_family_report",
    ),
}

# Layers whose self time and calls are reported; jones.check is the glue of
# obstruction_check and is kept in the span file only.
SELF_TIME_LAYERS = [layer for layer in LAYERS if layer != "jones.check"]
CALL_LAYERS = [
    "diagram.canonical_code",
    "diagram.build",
    "diagram.construct",
    "diagram.simplify",
    "diagram.moves",
    "jones.bracket",
    "jones.goeritz",
    "intmat.det",
]
MUL_TARGETS = {f"qalt.poly:{c}.{op}" for c in ("IntLaurent", "HalfLaurent") for op in ("__mul__", "__rmul__")}


class TraceError(RuntimeError):
    """A function listed in LAYERS does not exist in qalt."""


class CountingMemo(dict):
    """A memo for ``q_polynomial`` that counts lookups and hits."""

    def __init__(self, counts: Counter):
        super().__init__()
        self._counts = counts

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self._counts["qpoly.memo.lookups"] += 1
        if value is not None:
            self._counts["qpoly.memo.hits"] += 1
        return value


def _terms(p) -> int:
    return len(p.items()) if hasattr(p, "items") else 1


def _resolve(target: str):
    """(owner, attribute, raw class-dict or module value) for a target."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
        *classes, attr = qualname.split(".")
        for name in classes:
            owner = getattr(owner, name)
        raw = vars(owner)[attr] if classes else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as e:
        raise TraceError(f"traced function {target} does not exist: {e!r}") from e
    return owner, attr, raw


def qalt_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "qalt" or name.startswith("qalt.")]


class Tracer:
    """Spans and counters for the layers in LAYERS, recorded while installed."""

    def __init__(self):
        self.targets: list[str] = []  # span kind -> target name
        self.layer_of: list[str] = []  # span kind -> layer
        self.kind = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_job = -1
        self._stack: list[int] = []
        self._plan: list[tuple] | None = None
        self._patches: list[tuple] = []

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every LAYERS function, or raise TraceError
        before patching anything."""
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, raw, wrapper in self._plan:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, raw))

    def _make_plan(self) -> list[tuple]:
        plan = []
        modules = qalt_modules()
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, raw = _resolve(target)
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self._wrap(raw.__func__, target, layer))
                    plan.append((owner, attr, raw, wrapper))
                elif isinstance(owner, type):
                    plan.append((owner, attr, raw, self._wrap(raw, target, layer)))
                else:
                    wrapper = self._wrap(raw, target, layer)
                    plan.extend(
                        (m, name, raw, wrapper)
                        for m in modules
                        for name, value in list(vars(m).items())
                        if value is raw
                    )
        return plan

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, target: str, layer: str):
        sid = len(self.targets)
        self.targets.append(target)
        self.layer_of.append(layer)
        kind, parent, job, start, end = self.kind, self.parent, self.job, self.start, self.end
        stack, counts, perf = self._stack, self.counts, time.perf_counter
        observe = self._observer(target)
        count_memo = target == "qalt.qpoly:q_polynomial"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_memo and len(args) < 3 and kwargs.get("memo") is None:
                kwargs["memo"] = CountingMemo(counts)
            i = len(start)
            kind.append(sid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, target: str):
        """Counts taken at a span's boundary, from its arguments and result."""
        counts = self.counts
        if target == "qalt.qpoly:q_polynomial":
            def observe(args, kwargs, result):
                memo = kwargs.get("memo")
                if isinstance(memo, CountingMemo):
                    peak = counts["qpoly.memo.peak_entries"]
                    counts["qpoly.memo.peak_entries"] = max(peak, len(memo))
        elif target == "qalt.diagram:simplify":
            def observe(args, kwargs, result):
                removed = len(args[0]) - len(result)
                counts["diagram.simplify.removed"] += removed
                counts["diagram.simplify.useful"] += removed > 0
        elif target in MUL_TARGETS:
            def observe(args, kwargs, result):
                if result is not NotImplemented:
                    counts["poly.mul.calls"] += 1
                    counts["poly.mul.term_products"] += _terms(args[0]) * _terms(args[1])
        elif target == "qalt.intmat:int_det":
            def observe(args, kwargs, result):
                peak = counts["intmat.det.order_max"]
                counts["intmat.det.order_max"] = max(peak, len(args[0]))
        else:
            observe = None
        return observe

    # -- results ---------------------------------------------------------

    def layer_metrics(self, passes: int, job_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics, per pass of the corpus where they accumulate.

        ``job_s`` is the traced job time per pass; the part of it inside no
        span is trace.unattributed_s."""
        n = len(self.start)
        child = [0.0] * n
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        root_s = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                root_s += dur
        self_s = Counter()
        calls = Counter()
        target_calls = Counter()
        for i in range(n):
            layer = self.layer_of[kind[i]]
            self_s[layer] += end[i] - start[i] - child[i]
            calls[layer] += 1
            target_calls[self.targets[kind[i]]] += 1
        c = self.counts
        checks = target_calls["qalt.jones:obstruction_check"]
        m = {f"{layer}.self_s": self_s[layer] / passes for layer in SELF_TIME_LAYERS}
        m.update({f"{layer}.calls": calls[layer] / passes for layer in CALL_LAYERS})
        lookups = c["qpoly.memo.lookups"]
        m.update(
            {
                "qpoly.memo.lookups": lookups / passes,
                "qpoly.memo.hit_ratio": c["qpoly.memo.hits"] / lookups if lookups else 0.0,
                "qpoly.memo.peak_entries": c["qpoly.memo.peak_entries"],
                "jones.bracket.calls_per_check": calls["jones.bracket"] / checks if checks else 0.0,
                "diagram.simplify.useful_ratio": (
                    c["diagram.simplify.useful"] / calls["diagram.simplify"]
                    if calls["diagram.simplify"]
                    else 0.0
                ),
                "diagram.simplify.removed": c["diagram.simplify.removed"] / passes,
                "poly.mul.calls": c["poly.mul.calls"] / passes,
                "poly.mul.term_products": c["poly.mul.term_products"] / passes,
                "intmat.det.order_max": c["intmat.det.order_max"],
                "trace.overhead_frac": overhead_frac,
                "trace.unattributed_s": job_s - root_s / passes,
            }
        )
        return m

    def write(self, path: Path, header: dict) -> None:
        """Write the spans: a JSON header line, then the five columns raw."""
        columns = ("kind", "parent", "job", "start", "end")
        head = dict(
            header,
            spans=len(self.start),
            targets=self.targets,
            layers=self.layer_of,
            columns=[[c, getattr(self, c).typecode] for c in columns],
        )
        with open(path, "wb") as f:
            f.write(json.dumps(head).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(f)
