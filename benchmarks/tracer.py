"""Span tracer that wraps cmclab's public functions from outside the package.

``TARGETS`` is the one table of wrapped names.  For each entry the tracer
replaces the function in every ``cmclab`` module that binds it (methods are
replaced on their class), records one span per call (layer, start, end,
parent span, work item), and restores every original in ``restore``.  A name
that no longer exists is skipped with a note, so its metrics read 0 instead
of stopping the traced run.

Only the traced pass imports this module; the timed passes run untouched
code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _basis_at_points(tracer, args, kwargs, result):
    tracer.add("sphere.basis_at.points", np.size(args[0]) // 3)


def _basis_matrices_builds(tracer, args, kwargs, result):
    grid, L = args[0], (args[1] if len(args) > 1 else kwargs["L"])
    seen = tracer.grids.setdefault(grid, set())
    if L not in seen:
        seen.add(L)
        tracer.add("sphere.basis_matrices.builds", 1)
        # six node-by-coefficient float64 matrices, computed from the sizes
        tracer.add("sphere.basis_matrices.bytes",
                   6 * grid.n_nodes * (L + 1) ** 2 * 8)


def _metric_points(tracer, args, kwargs, result):
    tracer.add("metrics.evaluate_metric.points", np.size(args[1]) // 3)


def _complex_jets(tracer, args, kwargs, result):
    if any(np.iscomplexobj(v) for v in vars(args[0]).values()):
        tracer.add("geometry.mean_curvature.complex_calls", 1)


def _solve_outcome(tracer, args, kwargs, result):
    tracer.add("solver.solve.converged", int(result.converged))
    tracer.add("solver.newton_iterations", result.iterations)


def _cholesky_flops(tracer, args, kwargs, result):
    n = np.shape(args[0])[0]
    # Cholesky n^3/3 plus the J^T J product 2 n^3 that forms its matrix
    tracer.add("solver.linear_solve.flops", n**3 / 3 + 2 * n**3)


@dataclass(frozen=True)
class Target:
    layer: str                 # metric prefix
    module: str                # module that defines the name
    name: str                  # function, or "Class.method"
    counts: bool = True        # a call adds to <layer>.calls
    extra: Callable | None = None


TARGETS = (
    Target("sphere.r0", "cmclab.sphere", "SphereGraph.r0"),
    Target("sphere.basis_at", "cmclab.sphere", "basis_at", extra=_basis_at_points),
    Target("sphere.synthesize", "cmclab.sphere", "synthesize"),
    Target("sphere.analyze", "cmclab.sphere", "analyze"),
    Target("sphere.c1_seminorms", "cmclab.sphere", "c1_seminorms"),
    Target("sphere.basis_matrices", "cmclab.sphere",
           "QuadratureGrid.basis_matrices", extra=_basis_matrices_builds),
    Target("sphere.moment_normalize", "cmclab.sphere", "moment_normalize"),
    Target("metrics.evaluate_metric", "cmclab.metrics", "evaluate_metric",
           extra=_metric_points),
    Target("metrics.christoffel", "cmclab.metrics", "christoffel"),
    Target("metrics.curvature_tensors", "cmclab.metrics", "curvature_tensors"),
    Target("geometry.mean_curvature", "cmclab.geometry",
           "mean_curvature_from_jets", extra=_complex_jets),
    Target("geometry.build_geometry", "cmclab.geometry", "build_geometry"),
    Target("functionals.build_report", "cmclab.functionals", "build_report"),
    Target("functionals.audit", "cmclab.functionals", "big_inequality_audit"),
    Target("functionals.taylor_fit", "cmclab.functionals",
           "taylor_prefactor_fit"),
    Target("solver.solve", "cmclab.solver", "solve_cmc", extra=_solve_outcome),
    Target("solver.jacobian", "cmclab.solver", "_node_jacobian"),
    Target("solver.linear_solve", "cmclab.solver", "cho_factor",
           extra=_cholesky_flops),
    Target("solver.linear_solve", "cmclab.solver", "cho_solve", counts=False),
    Target("solver.spectrum", "cmclab.solver", "_constrained_spectrum"),
    Target("solver.seed_radius", "cmclab.solver", "round_seed_radius"),
    Target("harness.config", "cmclab.harness.config", "load_config"),
    Target("harness.run", "cmclab.harness.experiments", "run_scan"),
    Target("harness.run", "cmclab.harness.experiments", "run_foliate"),
    Target("harness.run", "cmclab.harness.verify", "run_verify"),
)

# Per-layer metrics and units, in the order BENCHMARK.json lists them.  A
# name ending in .self_s or .total_s is summed from the spans, a *_share is a
# ratio of two counters (its base is reported too), and any other name,
# .calls included, is a counter.
METRICS = {
    "sphere.r0.calls": "count", "sphere.r0.self_s": "s",
    "sphere.r0.total_s": "s",
    "sphere.basis_at.calls": "count", "sphere.basis_at.points": "count",
    "sphere.basis_at.self_s": "s",
    "sphere.synthesize.calls": "count", "sphere.synthesize.self_s": "s",
    "sphere.analyze.calls": "count", "sphere.analyze.self_s": "s",
    "sphere.c1_seminorms.calls": "count", "sphere.c1_seminorms.self_s": "s",
    "sphere.basis_matrices.calls": "count",
    "sphere.basis_matrices.builds": "count",
    "sphere.basis_matrices.build_share": "ratio",
    "sphere.basis_matrices.self_s": "s",
    "sphere.basis_matrices.bytes": "B-computed",
    "sphere.moment_normalize.calls": "count",
    "sphere.moment_normalize.total_s": "s",
    "metrics.evaluate_metric.calls": "count",
    "metrics.evaluate_metric.points": "count",
    "metrics.evaluate_metric.self_s": "s",
    "metrics.christoffel.calls": "count", "metrics.christoffel.self_s": "s",
    "metrics.curvature_tensors.calls": "count",
    "metrics.curvature_tensors.self_s": "s",
    "geometry.mean_curvature.calls": "count",
    "geometry.mean_curvature.complex_calls": "count",
    "geometry.mean_curvature.self_s": "s",
    "geometry.build_geometry.calls": "count",
    "geometry.build_geometry.self_s": "s",
    "functionals.build_report.calls": "count",
    "functionals.build_report.self_s": "s",
    "functionals.audit.calls": "count", "functionals.audit.self_s": "s",
    "functionals.taylor_fit.calls": "count",
    "functionals.taylor_fit.self_s": "s",
    "solver.solve.calls": "count", "solver.solve.converged": "count",
    "solver.solve.converged_share": "ratio", "solver.solve.self_s": "s",
    "solver.newton_iterations": "count",
    "solver.jacobian.calls": "count", "solver.jacobian.self_s": "s",
    "solver.linear_solve.calls": "count", "solver.linear_solve.self_s": "s",
    "solver.linear_solve.flops": "flop-computed",
    "solver.spectrum.calls": "count", "solver.spectrum.self_s": "s",
    "solver.seed_radius.calls": "count", "solver.seed_radius.self_s": "s",
    "harness.config.self_s": "s",
    "harness.run.self_s": "s",
}

# numerator -> base of each *_share metric
SHARES = {
    "sphere.basis_matrices.build_share": ("sphere.basis_matrices.builds",
                                          "sphere.basis_matrices.calls"),
    "solver.solve.converged_share": ("solver.solve.converged",
                                     "solver.solve.calls"),
}


def _resolve(target: Target):
    """(owners, original): every (object, attribute) binding the target."""
    module = importlib.import_module(target.module)
    if "." in target.name:
        cls_name, meth = target.name.split(".")
        cls = getattr(module, cls_name)
        return [(cls, meth)], vars(cls)[meth]
    original = getattr(module, target.name)
    owners = [(mod, attr)
              for mod_name, mod in list(sys.modules.items())
              if mod_name == "cmclab" or mod_name.startswith("cmclab.")
              for attr, value in list(vars(mod).items()) if value is original]
    return owners, original


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [layer, start, end, parent, item]
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []
        self.item = "setup"
        self.grids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def mark(self, item: str) -> None:
        self.item = item

    def install(self) -> None:
        for target in TARGETS:
            try:
                owners, original = _resolve(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.notes.append(f"{target.module}.{target.name} not found "
                                  f"({exc!r}); {target.layer} reads 0")
                continue
            wrapper = self._wrap(target, original)
            for owner, attr in owners:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [target.layer, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else None, tracer.item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if target.counts:
                tracer.add(target.layer + ".calls", 1)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if target.extra is not None:
                target.extra(tracer, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
            total_s[layer] = total_s.get(layer, 0.0) + span[2] - span[1]
        out = {}
        for name in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = self_s.get(layer, 0.0)
            elif kind == "total_s":
                out[name] = total_s.get(layer, 0.0)
            elif name in SHARES:
                num, base = (self.counters.get(k, 0) for k in SHARES[name])
                out[name] = num / base if base else 0.0
            else:
                out[name] = self.counters.get(name, 0)
        return out

    def write(self, path: str) -> None:
        keys = ("layer", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "notes": self.notes}, fh)
            fh.write("\n")
