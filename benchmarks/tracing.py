"""Spans around calls into ballcover's modules, recorded from outside the package.

The tracer rebinds the public names that ballcover's modules import from
each other (for example ``robust.solve_lp`` or ``calibration.shape_values``)
to thin wrappers that record a span per call: name, start, end, parent span
and the op it belongs to, plus a few counts read off the arguments and the
result.  Spans stay in memory; :func:`layer_metrics` turns them into
per-layer numbers when the run ends.  Nothing under ``src/`` is modified:
:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans only while an op is open (see :meth:`op_started`)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def op_started(self) -> None:
        self._op = len(self.ops)
        self.ops.append((perf_counter(), 0.0))

    def op_finished(self) -> None:
        start, _ = self.ops[self._op]
        self.ops[self._op] = (start, perf_counter())
        self._op = -1

    def wrap(self, name: str, fn, measure=None):
        """A drop-in replacement for ``fn`` that records one span per call.

        ``measure(args, kwargs, result)`` returns the span's counts.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def rebind(self, owner, attr: str, name: str, measure=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


GRID = tuple(
    f"geometry.grid.{norm}.m{m}.d{d}.ns_per_pair"
    for norm in ("l1", "l2", "linf")
    for m in (10, 1000)
    for d in (2, 20)
)

LAYER_UNITS = {
    "geometry.shape_values_s": "s/op",
    "geometry.pairs": "pairs/op",
    "geometry.ns_per_pair": "ns/pair",
    "geometry.bytes_computed": "bytes/op",
    "geometry.worst_case_linear_calls": "calls/op",
    "mixtures.sample_s": "s/op",
    "mixtures.sample_points": "points/op",
    "mixtures.ns_per_point": "ns/point",
    "mixtures.density_s": "s/op",
    "calibration.calibrate_self_s": "s/op",
    "calibration.calibrate_calls": "calls/op",
    "calibration.training_points": "points/op",
    "experiments.estimate_coverage_self_s": "s/op",
    "experiments.raster_set_self_s": "s/op",
    "experiments.role_of_m_self_s": "s/op",
    "simplex.solve_lp_calls": "calls/op",
    "simplex.solve_lp_s": "s/op",
    "simplex.lp_iterations": "iters/op",
    "simplex.tableau_cells": "cells/op",
    "simplex.us_per_iteration": "us/iter",
    "robust.solve_self_s": "s/op",
    "robust.cuts_added": "cuts/op",
    "robust.lp_rounds_per_solve": "lps/solve",
    "robust.failed_solves": "solves/op",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_ms": "ms",
    "trace.uncovered_frac": "ratio",
} | {name: "ns/pair" for name in GRID}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_counts(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "centers"))
    m, d = (1, shape[0]) if len(shape) == 1 else shape
    n = len(result)
    return {"pairs": n * m, "bytes": n * m * d * 8}


def _sample_counts(args, kwargs, result):
    return {"points": len(result)}


def _calibrate_counts(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 2, "training"))}


def _lp_counts(args, kwargs, result):
    a_mat = _arg(args, kwargs, 1, "A")
    rows, cols = getattr(a_mat, "shape", (0, 0))
    return {"iterations": result.iterations, "cells": rows * cols}


def _solve_counts(args, kwargs, result):
    return {"cuts": result.cuts_added, "failed": int(result.status.value != "optimal")}


def install(tracer: Tracer) -> None:
    """Wrap every cross-module public name the workloads reach."""
    from ballcover import calibration, cli, experiments, geometry, mixtures, robust, simplex

    for owner in (geometry, calibration, mixtures):
        tracer.rebind(owner, "shape_values", "geometry.shape_values", _kernel_counts)
    for owner in (geometry, robust):
        tracer.rebind(owner, "worst_case_linear", "geometry.worst_case_linear")
    tracer.rebind(mixtures.GaussianMixture, "sample", "mixtures.sample", _sample_counts)
    tracer.rebind(mixtures.GaussianMixture, "density", "mixtures.density")
    for owner in (calibration, experiments, cli):
        tracer.rebind(owner, "calibrate_radius", "calibration.calibrate_radius", _calibrate_counts)
    tracer.rebind(experiments, "estimate_coverage", "experiments.estimate_coverage")
    for owner in (experiments, cli):
        tracer.rebind(owner, "raster_set", "experiments.raster_set")
        tracer.rebind(owner, "raster_density", "experiments.raster_density")
        tracer.rebind(owner, "run_consistency_experiment", "experiments.run_consistency_experiment")
    tracer.rebind(experiments, "run_role_of_m_study", "experiments.run_role_of_m_study")
    for owner in (simplex, robust):
        tracer.rebind(owner, "solve_lp", "simplex.solve_lp", _lp_counts)
    tracer.rebind(robust, "solve", "robust.solve", _solve_counts)
    tracer.rebind(cli, "solve_robust", "robust.solve", _solve_counts)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-op layer totals, self times, derived rates and the uncovered share.

    Every time or count is divided by the number of traced ops, so runs of
    different length (or a faster program doing more ops) stay comparable.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_time[span.name] = self_time.get(span.name, 0.0) + span.duration - children
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value

    ops = max(1, len(tracer.ops))
    op_time = sum(end - start for start, end in tracer.ops)
    covered = sum(span.duration for span in spans if span.parent < 0)

    def per_op(table, key):
        return table.get(key, 0) / ops

    def rate(numerator, denominator, scale):
        return numerator * scale / denominator if denominator else 0.0

    pairs = counts.get("geometry.shape_values.pairs", 0)
    points = counts.get("mixtures.sample.points", 0)
    lp_iterations = counts.get("simplex.solve_lp.iterations", 0)
    solves = calls.get("robust.solve", 0)
    lp_in_solves = sum(
        span.name == "simplex.solve_lp" and span.parent >= 0
        and spans[span.parent].name == "robust.solve"
        for span in spans
    )
    return {
        "geometry.shape_values_s": per_op(total, "geometry.shape_values"),
        "geometry.pairs": pairs / ops,
        "geometry.ns_per_pair": rate(total.get("geometry.shape_values", 0.0), pairs, 1e9),
        "geometry.bytes_computed": counts.get("geometry.shape_values.bytes", 0) / ops,
        "geometry.worst_case_linear_calls": per_op(calls, "geometry.worst_case_linear"),
        "mixtures.sample_s": per_op(total, "mixtures.sample"),
        "mixtures.sample_points": points / ops,
        "mixtures.ns_per_point": rate(total.get("mixtures.sample", 0.0), points, 1e9),
        "mixtures.density_s": per_op(total, "mixtures.density"),
        "calibration.calibrate_self_s": per_op(self_time, "calibration.calibrate_radius"),
        "calibration.calibrate_calls": per_op(calls, "calibration.calibrate_radius"),
        "calibration.training_points": counts.get("calibration.calibrate_radius.points", 0) / ops,
        "experiments.estimate_coverage_self_s": per_op(self_time, "experiments.estimate_coverage"),
        "experiments.raster_set_self_s": per_op(self_time, "experiments.raster_set"),
        "experiments.role_of_m_self_s": per_op(self_time, "experiments.run_role_of_m_study"),
        "simplex.solve_lp_calls": per_op(calls, "simplex.solve_lp"),
        "simplex.solve_lp_s": per_op(total, "simplex.solve_lp"),
        "simplex.lp_iterations": lp_iterations / ops,
        "simplex.tableau_cells": counts.get("simplex.solve_lp.cells", 0) / ops,
        "simplex.us_per_iteration": rate(total.get("simplex.solve_lp", 0.0), lp_iterations, 1e6),
        "robust.solve_self_s": per_op(self_time, "robust.solve"),
        "robust.cuts_added": counts.get("robust.solve.cuts", 0) / ops,
        "robust.lp_rounds_per_solve": lp_in_solves / solves if solves else 0.0,
        "robust.failed_solves": counts.get("robust.solve.failed", 0) / ops,
        "trace.uncovered_frac": rate(op_time - covered, op_time, 1.0),
    }
