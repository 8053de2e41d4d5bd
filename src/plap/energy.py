"""The action functional, its exact gradient and Hessian, and solution residuals.

For u in the Dirichlet space A the energy is

    J(u) = 1/2 sum_x (1/p(x)) sum_y |u(y)-u(x)|^p(x) w(x,y)
           + sum_{x in S} (1/p(x)) q(x) |u(x)|^p(x)
           - lambda * sum_{x in S} F(x, u(x)),

where F(x, t) is the primitive of f(x, .) for t >= 0 and is extended
linearly (slope f(x, 0)) for t < 0, so that J is continuously
differentiable everywhere; for u >= 0 on S the source term is exactly
lambda * sum F(x, u_plus(x)).

``gradient_residual`` is the exact gradient of J on A.  At interior x it
equals

    1/2 sum_y [ sp(u(x)-u(y), p(x)) + sp(u(x)-u(y), p(y)) ] w(x,y)
    + q(x) sp(u(x), p(x)) - lambda f(x, u_plus(x)),

with sp(d, p) = |d|^(p-2) d.  When the exponent field is uniform this
coincides with -lap_p u(x) + q(x)|u(x)|^(p-2)u(x) - lambda f(x, u_plus(x));
with per-vertex exponents the plain p(x)-Laplacian is not a gradient field,
and the original-operator residual is reported separately by
``residual_original``.

The Hessian of J at u applied to x is half the row sums minus half the
column sums of c_k (x(r)-x(c)) over the ordered pairs k = (r, c), with
c_k = (p(r)-1) |u(r)-u(c)|^(p(r)-2) w_k, plus the diagonal
q (p-1) |u|^(p-2) - lambda d_t f(u_plus) times x; d_t f is 0 where u < 0,
where the source is linear.  ``EvaluationKernel`` holds these formulas once
per instance, and every public function below reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (DirichletFunction, VertexFunction, _as_values, _signed_power_vec,
                       edge_flux, minus_laplacian)
from .errors import NegativeArgument
from .model import ProblemSpec


class EvaluationKernel:
    """J, grad J and the exact Hessian product of one instance on plain
    interior vectors, with every per-call constant computed once
    (``ProblemSpec._kernel`` builds it on first use).  ``terms``,
    ``gradient_at`` and ``residual`` read a full vertex array, which may be
    nonzero on the boundary."""

    def __init__(self, spec: ProblemSpec):
        g = spec.graph
        self.graph = g
        self.n = g.n_interior
        self.n_vertices = g.n_vertices
        self.rows, self.cols, self.w = g.ordered_pairs
        self.p_rows = spec.p.values[self.rows]
        self.p_rows_m1 = self.p_rows - 1.0
        self.p_int = spec.p.interior()
        self.p_int_m1 = self.p_int - 1.0
        self.q = spec.q.values
        self.lam = spec.lam
        self.f = spec.f
        self.pad = np.zeros(g.n_boundary)

    def full(self, v: np.ndarray) -> np.ndarray:
        """The vertex array of the interior vector v, zero on the boundary."""
        return np.concatenate((v, self.pad))

    def _source(self, ui: np.ndarray) -> np.ndarray:
        # F at max(t, 0) plus the linear continuation below zero.
        vals = self.f.primitive_vector(np.maximum(ui, 0.0))
        negmask = ui < 0.0
        if negmask.any():
            f0 = self.f.rate_vector(np.zeros_like(ui))
            vals = vals + np.where(negmask, f0 * ui, 0.0)
        return vals

    def terms(self, uv: np.ndarray) -> tuple[float, float, float]:
        """The Dirichlet, potential and source terms of J at the vertex array uv."""
        ui = uv[: self.n]
        with np.errstate(over="ignore"):
            d = np.abs(uv[self.cols] - uv[self.rows])
            dirichlet = 0.5 * float((d ** self.p_rows / self.p_rows * self.w).sum())
            potential = float((np.abs(ui) ** self.p_int / self.p_int * self.q).sum())
            source = self.lam * float(self._source(ui).sum())
        return dirichlet, potential, source

    def energy(self, v: np.ndarray) -> float:
        """J at the interior vector v."""
        dirichlet, potential, source = self.terms(self.full(v))
        return dirichlet + potential - source

    def _operator(self, edge: np.ndarray, ui: np.ndarray, t: np.ndarray) -> np.ndarray:
        # edge part + q sp(u, p) - lambda f(t) at the interior vertices
        return (edge + self.q * _signed_power_vec(ui, self.p_int_m1)
                - self.lam * self.f.rate_vector(t))

    def gradient_at(self, uv: np.ndarray) -> np.ndarray:
        """grad J at the interior vertices of the vertex array uv."""
        n = self.n
        ui = uv[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            a = edge_flux(self.graph, self.p_rows_m1, uv)
            edge = 0.5 * (minus_laplacian(self.graph, a)[:n]
                          - np.bincount(self.cols, a, self.n_vertices)[:n])
            return self._operator(edge, ui, np.maximum(ui, 0.0))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """grad J at the interior vector v."""
        return self.gradient_at(self.full(v))

    def residual(self, uv: np.ndarray) -> float:
        """Sup-norm over the interior of the original operator at uv >= 0."""
        ui = uv[: self.n]
        with np.errstate(over="ignore", invalid="ignore"):
            val = self._operator(
                minus_laplacian(self.graph, edge_flux(self.graph, self.p_rows_m1, uv))[: self.n],
                ui, ui)
        return float(np.abs(val).max())

    def hessian(self, v: np.ndarray):
        """x -> H x, H the exact Hessian of J at the interior vector v; c_k
        and the diagonal are computed once, here."""
        rows, cols, n, nv = self.rows, self.cols, self.n, self.n_vertices
        with np.errstate(over="ignore", invalid="ignore"):
            uv = self.full(v)
            c = self.p_rows_m1 * np.abs(uv[rows] - uv[cols]) ** (self.p_rows - 2.0) * self.w
            slope = np.where(v < 0.0, 0.0, self.f.slope_vector(np.maximum(v, 0.0)))
            diag = self.q * self.p_int_m1 * np.abs(v) ** (self.p_int - 2.0) - self.lam * slope

        def product(x: np.ndarray) -> np.ndarray:
            xv = self.full(x)
            with np.errstate(over="ignore", invalid="ignore"):
                e = c * (xv[rows] - xv[cols])
                return 0.5 * (np.bincount(rows, e, nv)[:n] - np.bincount(cols, e, nv)[:n]) \
                    + diag * x

        return product


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet_term: float
    potential_term: float
    source_term: float

    @property
    def total(self) -> float:
        return self.dirichlet_term + self.potential_term - self.source_term


def energy(spec: ProblemSpec, u: DirichletFunction | np.ndarray) -> EnergyBreakdown:
    """Evaluate J term by term in the rewritten double-sum form; ``u`` is a
    DirichletFunction or a plain array of every vertex value."""
    return EnergyBreakdown(*spec._kernel.terms(_as_values(u)))


def energy_value(spec: ProblemSpec, u: DirichletFunction | np.ndarray) -> float:
    return energy(spec, u).total


def gradient_values(spec: ProblemSpec, uv: np.ndarray) -> np.ndarray:
    """Gradient of J as a full vertex array (zero on the boundary); its
    Dirichlet part is half the edge flux summed per row minus per column."""
    grad = np.zeros(spec.graph.n_vertices)
    grad[: spec.graph.n_interior] = spec._kernel.gradient_at(uv)
    return grad


def gradient_residual(spec: ProblemSpec, u: DirichletFunction) -> DirichletFunction:
    """Exact gradient of J with respect to the standard basis of A.

    Components on the boundary are zero.  A critical point of J is exactly a
    zero of this vector.
    """
    return DirichletFunction(spec.graph, gradient_values(spec, u.values))


def directional_slope(spec: ProblemSpec, u: DirichletFunction, v: DirichletFunction) -> float:
    """One-sided slope of eps -> J(u + eps v) at eps = 0.

    Computed as the dot product of gradient_residual with v (same summation
    order), so the basis-direction case reproduces the gradient component
    bit for bit.
    """
    return float(np.dot(gradient_values(spec, u.values), v.values))


def residual_original(spec: ProblemSpec, u: VertexFunction) -> float:
    """Certification residual of the original problem:

        max over interior x of | -lap_p u(x) + q(x)|u(x)|^(p(x)-2) u(x)
                                 - lambda f(x, u(x)) |.

    Defined only for u >= 0 on the interior, since f models t >= 0.  The
    operator reads u at every vertex, nonzero boundary values included.
    """
    g = spec.graph
    ui = u.values[: g.n_interior]
    if np.any(ui < 0.0):
        x = g.interior[int(np.argmin(ui))]
        raise NegativeArgument(f"u({x}) < 0: the original problem evaluates f at u itself")
    return spec._kernel.residual(u.values)
