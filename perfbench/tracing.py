"""Per-module spans and counts for the traced benchmark run.

The public functions of each rhbvp module are wrapped where callers look
them up: a module-level function is replaced in every rhbvp module (and
the package namespace) that holds it, a method on its class.  A wrapper
records a span (name, start, end, parent) and adds its duration minus
its children's to the function's self time.  Counters derive work sizes
from arguments and results.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _verify_counts(args, kwargs, report):
    tol = report.settings["tol"]
    certified = (~report.excluded) & report.converged & (report.error <= tol)
    return {"verify.probed_vertices": len(report.angles),
            "verify.certified_vertices": int(np.sum(certified))}


def _evaluate_counts(args, kwargs, result):
    bf, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
    if bf.pieces is not None:
        return {}
    return {"boundary_data.evaluate.dense_mb": _size(theta) * bf.N * 16 / 2**20}


def _rays_counts(args, kwargs, result):
    series, scales = args[0], args[1] if len(args) > 1 else kwargs["scales"]
    return {"disk_harmonic.eval_on_rays.scales": _size(scales),
            "disk_harmonic.eval_on_rays.terms":
                _size(scales) * len(series.coefficients)}


# (module, function or Class.method, counter of work done by one call)
TARGETS = (
    ("boundary_data", "build_boundary_function", None),
    ("boundary_data", "measurable_arg", None),
    ("boundary_data", "BoundaryFunction.evaluate", _evaluate_counts),
    ("boundary_data", "BoundaryFunction.resample", None),
    ("disk_harmonic", "schwarz_integral", None),
    ("disk_harmonic", "conjugate_boundary", None),
    ("disk_harmonic", "SeriesEvaluator.eval_on_rays", _rays_counts),
    ("disk_harmonic", "SeriesEvaluator.eval_on_circle", None),
    ("rh_solver", "solve_rh", lambda a, k, r: {
        "rh_solver.solve_rh.g_terms": len(r.g.coefficients)}),
    ("rh_solver", "AnalyticSolution.f_on_scales", None),
    ("rh_solver", "homogeneous_family", None),
    ("direction_solver", "antiderivative", None),
    # counted only: every F of the package comes out of this helper
    ("direction_solver", "antiderivative_from_circle", lambda a, k, r: {
        "direction_solver.F_terms": len(r.coefficients)}),
    ("direction_solver", "HarmonicSolution.u", lambda a, k, r: {
        "direction_solver.u.points": _size(a[1])}),
    ("direction_solver", "HarmonicSolution.on_grid", None),
    ("neumann", "solve_neumann", None),
    ("jordan_domain", "theodorsen_map", lambda a, k, r: {
        "jordan_domain.theodorsen_map.iterations": r.iterations}),
    ("jordan_domain", "ConformalMap.invert", lambda a, k, r: {
        "jordan_domain.invert.points": _size(a[1])}),
    ("jordan_domain", "transplant_solve", None),
    ("verify", "verify_solution", _verify_counts),
    ("verify", "radial_u_table", None),
    ("verify", "laplacian_residual", None),
    ("verify", "dimension_certificate", None),
    ("cli", "main", None),
)
_COUNT_ONLY = {"antiderivative_from_circle"}

# metric name -> unit, in the order they are reported
METRICS = {}
for _mod, _qual, _ in TARGETS:
    _short = _qual.split(".")[-1]
    if _short not in _COUNT_ONLY:
        METRICS[f"{_mod}.{_short}.self_s"] = "s"
for _name in ("boundary_data.measurable_arg.calls",
              "disk_harmonic.conjugate_boundary.calls",
              "disk_harmonic.eval_on_rays.calls", "rh_solver.solve_rh.calls",
              "direction_solver.antiderivative.calls",
              "neumann.solve_neumann.calls", "verify.verify_solution.calls",
              "cli.main.calls", "boundary_data.evaluate.dense_mb",
              "disk_harmonic.eval_on_rays.scales",
              "disk_harmonic.eval_on_rays.terms", "rh_solver.solve_rh.g_terms",
              "direction_solver.F_terms", "direction_solver.u.points",
              "jordan_domain.theodorsen_map.iterations",
              "jordan_domain.invert.points", "verify.probed_vertices",
              "verify.certified_vertices", "cli.bytes_written"):
    METRICS[_name] = ("MiB" if _name.endswith("_mb") else
                      "B" if _name.endswith("bytes_written") else "count")


class Tracer:
    """Spans and counters of wrapped rhbvp functions, kept in memory."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.round = 0
        self._round_self: dict[str, float] = defaultdict(float)
        self._round_top = 0.0

    def count(self, name: str, value: float):
        self.counts[name] += value

    def _wrap(self, name: str, fn, counter, timed: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not timed:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else None
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0,
                                     parent[1] if parent else -1, tracer.round])
                frame = [0.0, index]
                tracer._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index][1:3] = t0, t1
                    tracer._round_self[name] += (t1 - t0) - frame[0]
                    tracer.counts[name + ".calls"] += 1
                    if parent is not None:
                        parent[0] += t1 - t0
                    else:
                        tracer._round_top += t1 - t0
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    tracer.counts[key] += val
            return result

        return wrapper

    def install(self):
        """Replace every lookup site of each target with its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rhbvp" or n.startswith("rhbvp.")]
        for mod_name, qual, counter in TARGETS:
            mod = sys.modules["rhbvp." + mod_name]
            short = qual.split(".")[-1]
            name = f"{mod_name}.{short}"
            if "." in qual:
                owners = [getattr(mod, qual.split(".")[0])]
                orig = owners[0].__dict__[short]
            else:
                owners, orig = modules, getattr(mod, qual)
            wrapper = self._wrap(name, orig, counter, short not in _COUNT_ONLY)
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        self._patches.append((owner, attr, orig))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def end_round(self, scale: float):
        """Add this round's self times, multiplied by scale, to the totals."""
        for name, sec in self._round_self.items():
            self.self_s[name] += sec * scale
        self.top_level_s += self._round_top * scale
        self._round_self.clear()
        self._round_top = 0.0

    def per_round(self, rounds: int) -> dict[str, float]:
        """Every per-module metric, summed over traced rounds / rounds."""
        out = {}
        for name in METRICS:
            total = (self.self_s.get(name[:-len(".self_s")], 0.0)
                     if name.endswith(".self_s") else self.counts.get(name, 0.0))
            out[name] = total / rounds
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "round"],
                       "spans": self.spans}, fh)
