"""Independent re-certification of reported solutions.

The checks here never call into ``plap`` for the quantities they certify: the
residual of the original equation is recomputed from the benchmark's own copy
of the instance (the generated edge list, or the fixture file read as plain
JSON), with the two built-in nonlinearities written out from their documented
formulas.  A solver change that also broke the library's own residual would
still be caught here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

RESIDUAL_TOL = 1e-8  # the `plap certify` default
ROOT_TOL = 1e-8


@dataclass
class Problem:
    """One instance as plain data: the benchmark's reference copy."""

    interior: list[str]
    boundary: list[str]
    edges: list[tuple[str, str, float]]
    p: dict[str, float]              # every vertex
    q: dict[str, float]              # interior vertices
    kind: str                        # "power_plus" | "arctan_power"
    params: dict[str, dict[str, float]]  # parameter -> interior vertex -> value
    lam: float
    _roots: list[float] | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.interior) + len(self.boundary)

    def with_lambda(self, lam: float) -> "Problem":
        return Problem(self.interior, self.boundary, self.edges, self.p, self.q,
                       self.kind, self.params, lam)

    def rate(self, t: np.ndarray) -> np.ndarray:
        """f(x, t) over the interior, t >= 0 in interior order."""
        par = {k: np.array([v[x] for x in self.interior]) for k, v in self.params.items()}
        if self.kind == "power_plus":
            return par["phi"] * t ** (par["m"] - 1.0) + par["psi"]
        if self.kind == "arctan_power":
            expo = 1.0 - np.exp(-t * t) + par["m"]
            return ((t + 1.0) ** expo * ((2.0 / np.pi) * np.arctan(t) + par["phi"])
                    + np.abs(np.sin(t)) + par["psi"] + 1.0)
        raise ValueError(f"no reference formula for nonlinearity kind {self.kind!r}")

    def residual(self, values: dict[str, float]) -> float:
        """max over interior x of |-lap_p u(x) + q(x) sp(u(x), p(x)) - lam f(x, u(x))|."""
        labels = self.interior + self.boundary
        index = {v: i for i, v in enumerate(labels)}
        u = np.array([float(values.get(v, 0.0)) for v in labels])
        a = np.array([index[e[0]] for e in self.edges] + [index[e[1]] for e in self.edges])
        b = np.array([index[e[1]] for e in self.edges] + [index[e[0]] for e in self.edges])
        w = np.array([float(e[2]) for e in self.edges] * 2)
        p = np.array([self.p[v] for v in labels])
        d = u[b] - u[a]
        lap = np.bincount(a, weights=np.sign(d) * np.abs(d) ** (p[a] - 1.0) * w,
                          minlength=len(labels))
        ni = len(self.interior)
        ui, pi = u[:ni], p[:ni]
        qi = np.array([self.q[v] for v in self.interior])
        res = -lap[:ni] + qi * np.sign(ui) * np.abs(ui) ** (pi - 1.0) - self.lam * self.rate(ui)
        return float(np.max(np.abs(res)))

    def scalar_roots(self) -> list[float]:
        """Positive roots of the one-interior-vertex stationarity equation

            t -> (sum_y w(x, y) + q) sp(t, p) - lam f(t),

        bracketed on a log grid over [0, 1e6] and refined by bisection.
        """
        if self._roots is not None:
            return self._roots
        if len(self.interior) != 1:
            raise ValueError("scalar roots need exactly one interior vertex")
        x = self.interior[0]
        W = sum(float(e[2]) for e in self.edges if x in (e[0], e[1]))
        pv, qv = self.p[x], self.q[x]

        def fn(t):
            t = np.asarray(t, dtype=float)
            return (W + qv) * np.sign(t) * np.abs(t) ** (pv - 1.0) \
                - self.lam * self.rate(np.maximum(t, 0.0).reshape(-1)).reshape(t.shape)

        grid = np.concatenate([[0.0], np.logspace(-8, 6, 3000)])
        vals = fn(grid)
        roots = []
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if fa == 0.0:
                if a > 0:
                    roots.append(float(a))
                continue
            if fa * fb < 0:
                lo, hi, flo = float(a), float(b), float(fa)
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = float(fn(np.array([mid]))[0])
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if flo * fm < 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                roots.append(0.5 * (lo + hi))
        if vals[-1] == 0.0:
            roots.append(float(grid[-1]))
        self._roots = sorted(roots)
        return self._roots


def _per_vertex(value, labels: list[str]) -> dict[str, float]:
    if isinstance(value, dict):
        return {v: float(value[v]) for v in labels}
    return {v: float(value) for v in labels}


def problem_from_file(path) -> Problem:
    """Read a problem file as plain JSON (no plap parsing involved)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    g = raw["graph"]
    interior, boundary = list(g["interior"]), list(g["boundary"])
    nl = raw["nonlinearity"]
    return Problem(
        interior=interior,
        boundary=boundary,
        edges=[(str(e["u"]), str(e["v"]), float(e["w"])) for e in g["edges"]],
        p=_per_vertex(raw["p"], interior + boundary),
        q=_per_vertex(raw["q"], interior),
        kind=nl["kind"],
        params={k: _per_vertex(v, interior) for k, v in nl["parameters"].items()},
        lam=float(raw["lambda"]),
    )


def certify(problem: Problem, values: dict[str, float]) -> list[str]:
    """Names of the certificate parts that fail for one reported solution.

    ``values`` maps vertex labels to the reported state.  Checks: boundary
    values exactly 0, strict interior positivity, the original-equation
    residual, and, on one-interior-vertex instances, agreement with a root of
    the scalar stationarity equation.
    """
    failures = []
    missing = [v for v in problem.interior if v not in values]
    if missing:
        return [f"missing interior values {missing[:3]}"]
    nonzero = [v for v in problem.boundary if float(values.get(v, 0.0)) != 0.0]
    if nonzero:
        failures.append(f"boundary value nonzero at {nonzero[0]}")
    low = min(problem.interior, key=lambda v: float(values[v]))
    if not float(values[low]) > 0.0:
        failures.append(f"not strictly positive: u({low}) = {float(values[low]):.6g}")
        return failures  # f is only defined for t >= 0
    res = problem.residual(values)
    if not res <= RESIDUAL_TOL:
        failures.append(f"residual {res:.3g} > {RESIDUAL_TOL:g}")
    if len(problem.interior) == 1:
        t = float(values[problem.interior[0]])
        roots = problem.scalar_roots()
        if not any(abs(t - r) <= ROOT_TOL for r in roots):
            failures.append(f"u = {t!r} matches no scalar root in {roots}")
    return failures


def check_sweep_csv(problem: Problem, text: str, grid: list[float]) -> list[str]:
    """Gate for `plap sweep` output on a one-interior-vertex instance.

    One row per grid point, in grid order; every row reports at least one
    solution with ``min_residual`` <= 1e-8; and every reported norm, which on
    one interior vertex is the solution value itself, solves the equation at
    that row's lambda to 1e-8 by the reference residual.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0] != "lambda,solutions,min_residual,norms":
        return ["sweep: missing CSV header"]
    rows = lines[1:]
    if len(rows) != len(grid):
        return [f"sweep: {len(rows)} rows, expected {len(grid)}"]
    failures = []
    x = problem.interior[0]
    for k, (row, lam) in enumerate(zip(rows, grid)):
        cells = row.split(",")
        if len(cells) != 4:
            failures.append(f"sweep row {k}: malformed {row!r}")
            continue
        got_lam = float(cells[0])
        if not math.isclose(got_lam, lam, rel_tol=1e-15, abs_tol=0.0):
            failures.append(f"sweep row {k}: lambda {got_lam!r} off the grid ({lam!r})")
        count = int(cells[1])
        norms = [float(v) for v in cells[3].split(";")] if cells[3] else []
        if count < 1 or len(norms) != count:
            failures.append(f"sweep row {k}: {count} solutions, {len(norms)} norms")
            continue
        if not float(cells[2]) <= RESIDUAL_TOL:
            failures.append(f"sweep row {k}: min_residual {cells[2]} > {RESIDUAL_TOL:g}")
        inst = problem.with_lambda(got_lam)
        for t in norms:
            res = inst.residual({x: t}) if t > 0.0 else math.inf
            if not res <= RESIDUAL_TOL:
                failures.append(f"sweep row {k}: solution {t!r} has residual {res:.3g}")
    return failures
