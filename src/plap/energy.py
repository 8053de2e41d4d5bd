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
``residual_original``, from ``calculus.edge_flux``.

``EvaluationKernel`` holds these formulas once per instance, over edges
(i, j) of weight w: with d = u(i) - u(j), J sums |d|^p w / p, grad J takes
sp(d, p) w at i and its negative at j, and the Hessian applied to x takes
(p-1) |d|^(p-2) w (x(i) - x(j)) at i and its negative at j, plus the
diagonal q (p-1) |u|^(p-2) - lambda d_t f(u_plus) times x (d_t f is 0 where
u < 0, where the source is linear).  A uniform p reads each undirected edge
of ``Graph.edges`` once; a per-vertex p builds every ordered pair, at half
weight and with its row's p, which gives the formulas above.  Every public
function below and every solver routine reads the kernel; the certificate
``residual_original`` takes only its constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (DirichletFunction, VertexFunction, _as_values, edge_flux, gather,
                       index_sums, minus_laplacian)
from .errors import NegativeArgument, QuadratureFailure
from .model import ProblemSpec, _uniform


class EvaluationKernel:
    """J, grad J and the exact Hessian product of one instance on plain
    interior vectors, with every per-call constant computed once
    (``ProblemSpec._kernel`` builds it on first use).  ``terms`` and
    ``gradient_at`` read a full vertex array, which may be nonzero on the
    boundary.  ``energy``, ``gradient`` and ``energy_gradient`` (with
    ``terms`` and ``gradient_at``) also take a (K, n) stack of vectors and
    answer row by row, sums running along the last axis.  All of them run
    ``_pass``: one set of gathers, one power per edge and one per vertex.
    The kernel's edge ends are writable arrays of its own: ``np.bincount``
    copies a read-only index on every call."""

    def __init__(self, spec: ProblemSpec):
        g = spec.graph
        self.graph, self.n, self.n_vertices = g, g.n_interior, g.n_vertices
        # A uniform p is a float, for the division of a sum, and p - 1 a 0-d
        # array (``_uniform``), for the powers.
        p, p_int = _uniform(spec.p.values), _uniform(spec.p.interior())
        ei, ej, w = g.edges
        if p.ndim == 0:  # each edge once, as the graph holds it, with copies of its ends
            self.ei, self.ej, self.we, self.p = ei.copy(), ej.copy(), w, float(p)
        else:  # every ordered pair, sorted by (row, col), with half its weight and its row's p
            order = np.argsort(np.concatenate((ei * g.n_vertices + ej, ej * g.n_vertices + ei)))
            self.ei, self.ej, w = (np.concatenate(a)[order] for a in ((ei, ej), (ej, ei), (w, w)))
            self.we, self.p = 0.5 * w, p[self.ei]
        self.p_int = float(p_int) if p_int.ndim == 0 else p_int
        self.pm1, self.pm1_int = np.asarray(self.p - 1.0), np.asarray(self.p_int - 1.0)
        self.q, self.lam, self.f = spec.q.values, spec.lam, spec.f
        self.f0 = spec.f.rate_vector(np.zeros(self.n))  # the source's slope below zero
        self.pad = np.zeros(g.n_boundary)

    def full(self, v: np.ndarray) -> np.ndarray:
        """The vertex array of the interior vector v, zero on the boundary
        (row by row for a (K, n) stack)."""
        return (np.concatenate((v, self.pad)) if v.ndim == 1
                else np.concatenate((v, np.zeros((len(v), self.pad.size))), axis=1))

    def _source(self, t: np.ndarray, energy: bool, gradient: bool):
        """(f, F) at t >= 0, None in place of the part not asked for.  Far
        out, f may overflow and leave the quadrature without a value: F, and
        so J, is NaN in that row, which every search rejects."""
        if not energy:
            return self.f.rate_vector(t), None
        try:
            return self.f.rate_and_primitive(t) if gradient else (None, self.f.primitive_vector(t))
        except QuadratureFailure:
            F = (np.full(t.shape, np.nan) if t.ndim == 1
                 else np.stack([self._source(row, True, False)[1] for row in t]))
            return (self.f.rate_vector(t) if gradient else None), F

    def _pass(self, uv: np.ndarray, energy: bool, gradient: bool):
        """((dirichlet, potential, source, J), grad J) at the vertex array uv,
        None in place of the part not asked for, from one power of each
        edge's |u(i) - u(j)| and one of each |u(x)|."""
        n, nv, ui = self.n, self.n_vertices, uv[..., :self.n]
        parts = grad = None
        with np.errstate(over="ignore", invalid="ignore"):
            diff = gather(uv, self.ei) - gather(uv, self.ej)
            d, abs_u = np.abs(diff), np.abs(ui)
            t, s = d ** self.pm1 * self.we, abs_u ** self.pm1_int * self.q
            f, F = self._source(np.maximum(ui, _ZERO), energy, gradient)
            if energy:
                dirichlet = _sum_over(t * d, self.p)  # the sum of |d|^p w / p
                potential = _sum_over(s * abs_u, self.p_int)
                # F at u_plus plus the linear continuation below zero
                source = self.lam * np.add.reduce(F + self.f0 * np.minimum(ui, _ZERO), -1)
                # Where two terms overflow, J is inf - inf: NaN, which the
                # descent rejects.  Python floats give it silently.
                J = (float(dirichlet) + float(potential) - float(source) if uv.ndim == 1
                     else dirichlet + potential - source)
                parts = dirichlet, potential, source, J
            if gradient:
                a = np.copysign(t, diff)  # sp(diff, p) w, at i and negated at j
                edge = index_sums(self.ei, a, nv) - index_sums(self.ej, a, nv)
                grad = edge[..., :n] + np.copysign(s, ui) - self.lam * f
        return parts, grad

    def terms(self, uv: np.ndarray):
        """The Dirichlet, potential and source terms of J at the vertex array
        uv, or three (K,) arrays for a (K, n_vertices) stack."""
        return self._pass(uv, True, False)[0][:3]

    def energy(self, v: np.ndarray):
        """J at the interior vector v, or a (K,) array for a (K, n) stack."""
        return self._pass(self.full(v), True, False)[0][3]

    def gradient_at(self, uv: np.ndarray) -> np.ndarray:
        """grad J at the interior vertices of the vertex array uv (row by row
        for a (K, n_vertices) stack)."""
        return self._pass(uv, False, True)[1]

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """grad J at the interior vector v (row by row for a (K, n) stack)."""
        return self.gradient_at(self.full(v))

    def energy_gradient(self, v: np.ndarray):
        """(J, grad J) at the interior vector v, or a (K,) array and a (K, n)
        array for a (K, n) stack: the values of ``energy`` and ``gradient``,
        from one pass."""
        parts, grad = self._pass(self.full(v), True, True)
        return parts[3], grad

    def hessian(self, v: np.ndarray):
        """x -> H x, H the exact Hessian of J at the interior vector v; c =
        (p-1) |u(i) - u(j)|^(p-2) w and the diagonal are computed once, here."""
        ei, ej, n, nv = self.ei, self.ej, self.n, self.n_vertices
        with np.errstate(over="ignore", invalid="ignore"):
            uv = self.full(v)
            c = self.pm1 * np.abs(uv[ei] - uv[ej]) ** (self.pm1 - 1.0) * self.we
            slope = np.where(v < 0.0, 0.0, self.f.slope_vector(np.maximum(v, 0.0)))
            diag = self.q * self.pm1_int * np.abs(v) ** (self.pm1_int - 1.0) - self.lam * slope

        def product(x: np.ndarray) -> np.ndarray:
            xv = self.full(x)
            with np.errstate(over="ignore", invalid="ignore"):
                e = c * (xv[ei] - xv[ej])
                return np.bincount(ei, e, nv)[:n] - np.bincount(ej, e, nv)[:n] + diag * x

        return product

    def spike_energies(self, t: float, F0: np.ndarray) -> np.ndarray:
        """J(t e_i) for every interior i at once, F0 the primitive at zero:
        the terms of the edges at i, the potential and source at i, and
        F_j(0) elsewhere."""
        n, nv = self.n, self.n_vertices
        # an edge's term at |u(i) - u(j)| = t; np.power: a float t and a
        # uniform p would give Python's power, which raises on overflow
        e = np.power(t, self.p) / self.p * self.we
        dirichlet = np.bincount(self.ei, e, nv)[:n] + np.bincount(self.ej, e, nv)[:n]
        potential = np.power(t, self.p_int) * self.q / self.p_int
        Ft = self.f.primitive_vector(np.full(n, t))
        return dirichlet + potential - self.lam * (F0.sum() - F0 + Ft)


_ZERO = np.zeros(())  # 0-d: faster in ufuncs than the Python float 0.0


def _sum_over(x: np.ndarray, p) -> np.ndarray:
    """The sums of x / p along the last axis (one division per sum for a float p)."""
    return np.add.reduce(x, -1) / p if type(p) is float else np.add.reduce(x / p, -1)


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
    return EnergyBreakdown(*map(float, spec._kernel.terms(_as_values(u))))


def energy_value(spec: ProblemSpec, u: DirichletFunction | np.ndarray) -> float:
    return energy(spec, u).total


def gradient_residual(spec: ProblemSpec, u: DirichletFunction) -> DirichletFunction:
    """Exact gradient of J with respect to the standard basis of A.

    Components on the boundary are zero.  A critical point of J is exactly a
    zero of this vector.
    """
    return DirichletFunction.from_interior(spec.graph, spec._kernel.gradient_at(u.values))


def residual_original(spec: ProblemSpec, u: VertexFunction) -> float:
    """Certification residual of the original problem:

        max over interior x of | -lap_p u(x) + q(x)|u(x)|^(p(x)-2) u(x)
                                 - lambda f(x, u(x)) |.

    Defined only for u >= 0 on the interior, since f models t >= 0.  The
    operator is ``calculus.edge_flux`` summed by ``minus_laplacian``; it
    reads u at every vertex, nonzero boundary values included.
    """
    g, k = spec.graph, spec._kernel
    ui = u.values[: g.n_interior]
    if np.any(ui < 0.0):
        x = g.interior[int(np.argmin(ui))]
        raise NegativeArgument(f"u({x}) < 0: the original problem evaluates f at u itself")
    with np.errstate(over="ignore", invalid="ignore"):
        val = (minus_laplacian(g, edge_flux(g, spec.p, u))[: k.n]
               + np.copysign(np.abs(ui) ** k.pm1_int, ui) * k.q - k.lam * k.f.rate_vector(ui))
    return float(np.abs(val).max())
