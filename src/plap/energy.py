"""The action functional, its exact gradient, and solution residuals.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (DirichletFunction, VertexFunction, _as_values, _signed_power_vec,
                       edge_flux, minus_laplacian)
from .errors import NegativeArgument
from .model import ProblemSpec


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet_term: float
    potential_term: float
    source_term: float

    @property
    def total(self) -> float:
        return self.dirichlet_term + self.potential_term - self.source_term


def _source_primitive(spec: ProblemSpec, ui: np.ndarray) -> np.ndarray:
    # F at max(t, 0) plus the linear continuation below zero.
    pos = np.maximum(ui, 0.0)
    vals = spec.f.primitive_vector(pos)
    negmask = ui < 0.0
    if np.any(negmask):
        f0 = spec.f.rate_vector(np.zeros_like(ui))
        vals = vals + np.where(negmask, f0 * ui, 0.0)
    return vals


def energy(spec: ProblemSpec, u: DirichletFunction | np.ndarray) -> EnergyBreakdown:
    """Evaluate J term by term in the rewritten double-sum form; ``u`` is a
    DirichletFunction or a plain array of every vertex value."""
    g = spec.graph
    uv = _as_values(u)
    rows, cols, w = g.ordered_pairs
    p_rows = spec._p_rows
    with np.errstate(over="ignore"):
        d = np.abs(uv[cols] - uv[rows])
        dirichlet = 0.5 * float(np.sum(d ** p_rows / p_rows * w))
        ui = uv[: g.n_interior]
        pi = spec.p.interior()
        potential = float(np.sum(np.abs(ui) ** pi / pi * spec.q.values))
        source = spec.lam * float(np.sum(_source_primitive(spec, ui)))
    return EnergyBreakdown(dirichlet, potential, source)


def energy_value(spec: ProblemSpec, u: DirichletFunction | np.ndarray) -> float:
    return energy(spec, u).total


def gradient_values(spec: ProblemSpec, uv: np.ndarray) -> np.ndarray:
    """Gradient of J as a full vertex array (zero on the boundary); its
    Dirichlet part is half the edge flux summed per row minus per column."""
    g = spec.graph
    n = g.n_vertices
    with np.errstate(over="ignore", invalid="ignore"):
        a = edge_flux(g, spec._p_rows, uv)
        diff_part = 0.5 * (
            minus_laplacian(g, a) - np.bincount(g.ordered_pairs[1], weights=a, minlength=n)
        )
        ui = uv[: g.n_interior]
        pi = spec.p.interior()
        grad = np.zeros(n)
        grad[: g.n_interior] = (
            diff_part[: g.n_interior]
            + spec.q.values * _signed_power_vec(ui, pi)
            - spec.lam * spec.f.rate_vector(np.maximum(ui, 0.0))
        )
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
    uv = u.values
    ui = uv[: g.n_interior]
    if np.any(ui < 0.0):
        x = g.interior[int(np.argmin(ui))]
        raise NegativeArgument(f"u({x}) < 0: the original problem evaluates f at u itself")
    with np.errstate(over="ignore", invalid="ignore"):
        val = (
            minus_laplacian(g, edge_flux(g, spec._p_rows, uv))[: g.n_interior]
            + spec.q.values * _signed_power_vec(ui, spec.p.interior())
            - spec.lam * spec.f.rate_vector(ui)
        )
    return float(np.max(np.abs(val)))
