"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public functions of the ``plap`` modules where their
callers look them up: a module-level function is replaced in every ``plap``
module that binds it (so ``plap.solver.energy_value`` is wrapped as well as
``plap.energy.energy_value``), and a method is replaced on its class and on
every subclass that overrides it.  Each wrapped call records a span (name,
start, end, parent span, instance id) into flat arrays kept in memory; the
spans are written out once, when the run ends.

A target that no longer exists (a later refactor removed or renamed it) is
listed as absent instead of failing the run.  Every metric of
``LAYER_METRICS`` is always reported: one that cannot be measured (its target
is absent, or a ratio has no calls to divide by, such as
``solver.mountain_pass.converged_ratio`` on a workload without mountain
passes) is reported as 0 and named in ``Tracer.unmeasured``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name, defining module, attribute ("Class.method" for methods)
SPAN_TARGETS = [
    ("graphs.build_graph", "plap.graphs", "build_graph"),
    ("problem_io.load_problem", "plap.problem_io", "load_problem"),
    ("model.check_envelope", "plap.model", "check_envelope"),
    ("model.primitive_vector", "plap.model", "Nonlinearity.primitive_vector"),
    ("model.rate_vector", "plap.model", "Nonlinearity.rate_vector"),
    ("calculus.p_laplacian", "plap.calculus", "p_laplacian"),
    ("energy.energy_value", "plap.energy", "energy_value"),
    ("energy.gradient_residual", "plap.energy", "gradient_residual"),
    ("energy.residual_original", "plap.energy", "residual_original"),
    ("bounds.lambda_thresholds", "plap.bounds", "lambda_thresholds"),
    ("bounds.classify_regime", "plap.bounds", "classify_regime"),
    ("solver.solve", "plap.solver", "solve"),
    ("solver.descend", "plap.solver", "descend"),
    ("solver.min_on_sphere", "plap.solver", "min_on_sphere"),
    ("solver.mountain_pass", "plap.solver", "mountain_pass"),
    ("solver.spike_point", "plap.solver", "spike_point"),
    ("solver.hill_point", "plap.solver", "hill_point"),
    ("solver.verify_positive", "plap.solver", "verify_positive"),
    ("reporting.solve_report_document", "plap.reporting", "solve_report_document"),
    ("reporting.dumps", "plap.reporting", "dumps"),
    ("cli.main", "plap.cli", "main"),
]
# Counted only: a span per construction would cost more than the work.
COUNT_TARGETS = [
    ("calculus.DirichletFunction.constructions", "plap.calculus", "DirichletFunction.__post_init__"),
]
# Searches whose returned point carries `iterations` and `converged`.
SEARCHES = ("solver.descend", "solver.mountain_pass")

MODULES = ("graphs", "problem_io", "model", "calculus", "energy", "bounds",
           "solver", "reporting", "cli")

# Per-layer metric: (name, unit, the end-to-end metric and workload it should move).
LAYER_METRICS = [
    ("graphs.build_graph.s", "s", "setup_s on grid_direct"),
    ("graphs.weights_bytes", "bytes", "peak_rss_mb on grid_direct (computed n^2*8)"),
    ("problem_io.load_problem.s", "s", "setup_s on fixtures_cli"),
    ("model.check_envelope.s", "s", "setup_s on fixtures_cli"),
    ("model.primitive_vector.calls", "count",
     "solve_s, max_instance_s on fixtures_cli; no change on the grids"),
    ("model.primitive_vector.s", "s",
     "solve_s, max_instance_s on fixtures_cli; no change on the grids"),
    ("model.rate_vector.calls", "count",
     "solve_s, max_instance_s on fixtures_cli; no change on the grids"),
    ("model.rate_vector.s", "s",
     "solve_s, max_instance_s on fixtures_cli; no change on the grids"),
    ("energy.energy_value.calls", "count", "solve_s on grid_direct"),
    ("energy.energy_value.s", "s", "solve_s on grid_direct"),
    ("energy.gradient_residual.calls", "count", "solve_s on grid_direct"),
    ("energy.gradient_residual.s", "s", "solve_s on grid_direct"),
    ("energy.us_per_edge", "us",
     "solve_s on grid_direct (energy time per call per edge, median over the largest grids)"),
    ("energy.us_per_edge.smallest", "us",
     "solve_s on grid_direct (same over the smallest grids; equal values mean linear cost)"),
    ("energy.residual_original.calls", "count", "solve_s on grid_direct"),
    ("energy.residual_original.s", "s", "solve_s on grid_direct"),
    ("calculus.p_laplacian.calls", "count", "solve_s on grid_direct"),
    ("calculus.DirichletFunction.constructions", "count", "solve_s on grid_two_solution"),
    ("solver.descend.calls", "count", "solve_s on grid_direct and grid_two_solution"),
    ("solver.descend.s", "s", "solve_s on grid_direct and grid_two_solution"),
    ("solver.descend.iterations", "count", "solve_s on grid_direct and grid_two_solution"),
    ("solver.descend.converged_ratio", "ratio",
     "solve_s on grid_direct and grid_two_solution"),
    ("solver.energy_evals_per_gradient", "ratio", "solve_s on grid_direct"),
    ("solver.min_on_sphere.calls", "count",
     "solve_s, max_instance_s on grid_two_solution (zero on grid_direct)"),
    ("solver.min_on_sphere.s", "s",
     "solve_s, max_instance_s on grid_two_solution (zero on grid_direct)"),
    ("solver.mountain_pass.calls", "count",
     "certified_ratio on grid_two_solution and fixtures_cli"),
    ("solver.mountain_pass.s", "s",
     "certified_ratio on grid_two_solution and fixtures_cli"),
    ("solver.mountain_pass.iterations", "count",
     "certified_ratio on grid_two_solution and fixtures_cli"),
    ("solver.mountain_pass.converged_ratio", "ratio",
     "certified_ratio on grid_two_solution and fixtures_cli"),
    ("solver.spike_point.s", "s", "solve_s on grid_two_solution"),
    ("solver.hill_point.s", "s", "solve_s on grid_two_solution"),
    ("solver.verify_positive.s", "s", "solve_s on grid_two_solution"),
    ("reporting.solve_report_document.s", "s", "solve_s on fixtures_cli"),
    ("reporting.dumps.s", "s", "solve_s on fixtures_cli"),
    ("cli.main.s", "s", "solve_s on fixtures_cli"),
    ("bounds.lambda_thresholds.calls", "count", "control: no planned change moves it"),
    ("bounds.classify_regime.calls", "count", "control: no planned change moves it"),
] + [
    (f"{m}.self_s", "s", "attribution of a saving: span time minus child spans")
    for m in MODULES
] + [
    ("trace.overhead_ratio", "ratio", "traced solve_s / untraced solve_s"),
]


def _plap_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "plap" or n.startswith("plap."))]


def _class_family(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _class_family(sub)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.stack: list[int] = []
        self.active = False
        self.current = -1  # instance id of the spans being recorded; -1 is set-up
        self.counts: dict[str, int] = {}
        self.search: dict[str, list] = {}  # name -> [iterations, converged] (None if unreadable)
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self.unmeasured: list[str] = []  # metrics reported as 0 for want of data

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            k = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.instance.append(self.current)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(k)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[k] = t0
                self.end[k] = t1
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _search_result(self, name: str):
        self.search[name] = [0, 0]

        def record(point):
            acc = self.search[name]
            if acc is None:
                return
            its, conv = getattr(point, "iterations", None), getattr(point, "converged", None)
            if its is None or conv is None:
                self.search[name] = None
                return
            acc[0] += int(its)
            acc[1] += bool(conv)

        return record

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{name} ({module} missing)")
            return
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            family = [c for c in (_class_family(cls) if isinstance(cls, type) else [])
                      if meth in vars(c)]
            if not family:
                self.absent.append(f"{name} ({module}.{attr} missing)")
                return
            for c in family:
                setattr(c, meth, make(vars(c)[meth]))
        else:
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{name} ({module}.{attr} missing)")
                return
            wrapped = make(fn)
            for m in _plap_modules():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        self.installed.add(name)

    def install(self) -> None:
        for name, module, attr in SPAN_TARGETS:
            on_result = self._search_result(name) if name in SEARCHES else None
            self._patch(name, module, attr, lambda fn, n=name, r=on_result: self._span(n, fn, r))
        for name, module, attr in COUNT_TARGETS:
            self._patch(name, module, attr, lambda fn, n=name: self._counter(n, fn))

    # -- results --------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int32),
                np.array(self.instance, dtype=np.int32))

    def self_times(self) -> dict[str, float]:
        """Module -> summed self time of its spans inside instance runs."""
        nid, start, end, parent, inst = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        out = {m: 0.0 for m in MODULES}
        for k, name in enumerate(self.names):
            module = name.split(".")[0]
            sel = (nid == k) & (inst >= 0)
            out[module] = out.get(module, 0.0) + float(own[sel].sum())
        return out

    def totals(self) -> dict[tuple[str, int], tuple[int, float]]:
        """(span name, instance id) -> (calls, inclusive seconds)."""
        nid, start, end, _, inst = self._arrays()
        width = int(inst.max()) + 2 if len(inst) else 1
        key = nid.astype(np.int64) * width + (inst + 1)
        uniq, idx = np.unique(key, return_inverse=True)
        calls = np.bincount(idx)
        secs = np.bincount(idx, weights=end - start)
        return {(self.names[k // width], int(k % width) - 1): (int(c), float(t))
                for k, c, t in zip(uniq.tolist(), calls.tolist(), secs.tolist())}

    def metrics(self, instances, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Every per-layer metric; 0 (and listed in ``unmeasured``) where
        there is nothing to measure."""
        totals = self.totals()
        per: dict[str, list] = {}
        for (name, _), (calls, secs) in totals.items():
            acc = per.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        vals: dict[str, float] = {}
        for name, _, _ in SPAN_TARGETS:
            if name in self.installed:
                calls, secs = per.get(name, (0, 0.0))
                vals[f"{name}.calls"] = calls
                vals[f"{name}.s"] = secs
        for name, count in self.counts.items():
            if name in self.installed:
                vals[name] = count
        for name, acc in self.search.items():
            if name in self.installed and acc is not None:
                vals[f"{name}.iterations"] = acc[0]
                calls = per.get(name, (0, 0.0))[0]
                if calls:
                    vals[f"{name}.converged_ratio"] = acc[1] / calls
        ev, gr = "energy.energy_value", "energy.gradient_residual"
        if {ev, gr} <= self.installed and per.get(gr, (0, 0))[0]:
            vals["solver.energy_evals_per_gradient"] = per[ev][0] / per[gr][0]
        rates: dict[int, list[float]] = {}
        for k, inst in enumerate(instances):
            calls, secs = totals.get((ev, k), (0, 0.0))
            if calls:
                rates.setdefault(inst.n_edges, []).append(1e6 * secs / calls / inst.n_edges)
        if rates:
            vals["energy.us_per_edge"] = statistics.median(rates[max(rates)])
            vals["energy.us_per_edge.smallest"] = statistics.median(rates[min(rates)])
        vals["graphs.weights_bytes"] = sum(8 * inst.problem.n_vertices ** 2 for inst in instances)
        for module, secs in self.self_times().items():
            vals[f"{module}.self_s"] = secs
        vals["trace.overhead_ratio"] = traced_s / untraced_s
        self.unmeasured = [name for name, _, _ in LAYER_METRICS if name not in vals]
        return {name: vals.get(name, 0) for name, _, _ in LAYER_METRICS}

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name, start and end (s, from the first
        span), parent row (-1 for none), instance (-1 for set-up)."""
        nid, start, end, parent, inst = self._arrays()
        origin = float(start.min()) if len(start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,instance\n")
            fh.writelines(
                f"{self.names[n]},{s - origin:.9f},{e - origin:.9f},{p},{i}\n"
                for n, s, e, p, i in zip(nid.tolist(), start.tolist(), end.tolist(),
                                         parent.tolist(), inst.tolist())
            )
