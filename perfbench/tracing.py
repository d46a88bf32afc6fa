"""Per-layer tracing from outside the library.

Wrappers are installed around the public functions of each chowforge module
(the boundaries below).  Every wrapper records a span (name, start, end,
parent span, operation id) and adds to per-boundary counters: calls, self
time and inclusive time.  Self time is the span's duration minus the time of
the boundaries called from inside it.  Hot leaves are aggregated into counts
and summed times only, because one span per call would dominate the run.

A wrapper replaces the original in every chowforge module namespace that
bound the same object, so calls made from inside the package are seen.  A
boundary that no longer exists is listed as missing and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# (metric prefix, module, attribute path, aggregated leaf)
BOUNDARIES = (
    ("cli.build_report", "cli", "build_report", False),
    ("cli.canonical_json", "cli", "canonical_json", False),
    ("cli.compare_golden", "cli", "compare_golden", False),
    ("scenarios.scenario_I_g0", "scenarios", "scenario_I_g0", False),
    ("scenarios.scenario_I_g1", "scenarios", "scenario_I_g1", False),
    ("scenarios.scenario_Wn", "scenarios", "scenario_Wn", False),
    ("scenarios.scenario_A1_vanishing", "scenarios", "scenario_A1_vanishing", False),
    ("scenarios.scenario_R2", "scenarios", "scenario_R2", False),
    ("scenarios.one_point_constants", "scenarios", "one_point_constants", False),
    ("chern.standard_context", "chern", "standard_context", False),
    ("chern.jet_top_chern", "chern", "jet_top_chern", False),
    ("chern.pushforward_p1", "chern", "pushforward_p1", False),
    ("ring.complete", "ring", "RingPresentation.__init__", False),
    ("ring.normal_form", "ring", "RingPresentation.normal_form", False),
    ("ring.graded_component_dim", "ring", "RingPresentation.graded_component_dim", False),
    ("rationals.poly_gcd", "rationals", "poly_gcd", True),
    ("rationals.poly_divmod", "rationals", "poly_divmod", True),
    ("rationals.sturm_roots_geq", "rationals", "sturm_roots_geq", False),
    ("testcurves.intersection_matrix", "testcurves", "intersection_matrix", False),
    ("testcurves.certify_full_rank", "testcurves", "certify_full_rank", False),
    ("testcurves.bareiss_determinant", "testcurves", "bareiss_determinant", False),
    ("testcurves.gaussian_determinant", "testcurves", "gaussian_determinant", False),
    ("testcurves.rank_numeric", "testcurves", "rank_numeric", False),
    ("points.sample_curve_points", "points", "sample_curve_points", False),
    ("points.evaluation_matrix", "points", "evaluation_matrix", False),
    ("points.rank_exact", "points", "rank_exact", False),
    ("points.check_general_position", "points", "check_general_position", False),
)

LAYERS = ("cli", "scenarios", "chern", "ring", "rationals", "testcurves", "points")

# Counters read from the values a boundary returns: useful outcome over attempts.
RATIOS = (
    ("ring.complete.basis_ratio", "ring.complete.basis_out", "ring.complete.relations_in"),
    (
        "points.check_general_position.trials_ratio",
        "points.check_general_position.trials_used",
        "points.check_general_position.trials_allowed",
    ),
)


def _count_basis(tracer, args, kwargs, result):
    pres = args[0]
    tracer.counters["ring.complete.basis_out"] += len(pres.groebner_basis)
    tracer.counters["ring.complete.relations_in"] += len(pres.relations)


def _count_trials(tracer, args, kwargs, result):
    fn = tracer.originals["points.check_general_position"]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counters["points.check_general_position.trials_used"] += result.trials
    tracer.counters["points.check_general_position.trials_allowed"] += bound.arguments["trials"]


ON_RESULT = {
    "ring.complete": _count_basis,
    "points.check_general_position": _count_trials,
}


class Tracer:
    """Spans and per-boundary counters, kept in memory until the run ends."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.stack = []  # frames: [span id or None, time spent in child boundaries]
        self.spans = []  # (span id, name, start, end, parent span id, operation id)
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in boundaries}  # calls, self, incl
        self.counters = {name: 0 for _, num, den in RATIOS for name in (num, den)}
        self.originals = {}
        self.missing = []
        self.op_id = None
        self.enabled = True
        self._next_id = 0

    def wrap(self, name, fn, leaf):
        stats = self.stats[name]
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if leaf:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += duration
                if self.stack:
                    self.stack[-1][1] += duration
                if not leaf:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary that exists; record the ones that do not."""
        modules = {}
        for _, mod, _, _ in self.boundaries:
            try:
                modules[mod] = importlib.import_module(f"chowforge.{mod}")
            except ImportError:
                modules[mod] = None
        package = [m for name, m in sys.modules.items() if name.startswith("chowforge") and m]
        for name, mod, path, leaf in self.boundaries:
            owner = modules[mod]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self.originals[name] = original
            wrapped = self.wrap(name, original, leaf)
            setattr(owner, attr, wrapped)
            if not owner_path:
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def snapshot(self) -> dict:
        """Counters and spans in a form that survives JSON (for child processes)."""
        return {
            "stats": self.stats,
            "counters": self.counters,
            "spans": self.spans,
            "missing": self.missing,
        }

    def merge(self, snap: dict):
        for name, (calls, self_s, incl_s) in snap["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += self_s
            st[2] += incl_s
        for name, value in snap["counters"].items():
            self.counters[name] += value
        self.spans.extend(tuple(s) for s in snap["spans"])
        self.missing = sorted(set(self.missing) | set(snap["missing"]))


def layer_metrics(snap: dict, batches: int) -> dict:
    """Per-batch values of every per-layer metric.  Where every batch has the
    same inputs, call counts per batch repeat exactly from run to run."""
    out = {}
    per = 1.0 / max(batches, 1)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s, incl_s) in snap["stats"].items():
        out[f"{name}.calls"] = (calls * per, "count")
        out[f"{name}.self_s"] = (self_s * per, "s")
        out[f"{name}.incl_s"] = (incl_s * per, "s")
        layer_self[name.split(".")[0]] += self_s * per
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = (value, "s")
    for ratio, num, den in RATIOS:
        n, d = snap["counters"][num], snap["counters"][den]
        out[num] = (n * per, "count")
        out[den] = (d * per, "count")
        out[ratio] = (n / d if d else 0.0, "ratio")
    out["trace.spans"] = (len(snap["spans"]) * per, "count")
    out["trace.missing_boundaries"] = (len(snap["missing"]), "count")
    return out
