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
per instance, with J at every single-vertex spike t e_i; every public
function below and every solver routine reads it.  J and grad J share one
pass over the pairs, which computes either or both: the descent asks for
both at every point it evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (DirichletFunction, VertexFunction, _as_values, edge_flux, gather,
                       index_sums, minus_laplacian)
from .errors import NegativeArgument, QuadratureFailure
from .model import ProblemSpec


class EvaluationKernel:
    """J, grad J and the exact Hessian product of one instance on plain
    interior vectors, with every per-call constant computed once
    (``ProblemSpec._kernel`` builds it on first use).  ``terms``,
    ``gradient_at`` and ``residual`` read a full vertex array, which may be
    nonzero on the boundary.  ``energy``, ``gradient`` and
    ``energy_gradient`` (with ``terms`` and ``gradient_at``) also take a
    (K, n) stack of vectors and answer row by row with the same formulas,
    sums running along the last axis.  All of them run ``_pass``, which
    computes J and grad J from one set of gathers and one power per pair and
    per vertex; ``energy_gradient`` asks it for both, at 71-80% of the cost
    of an ``energy`` and a ``gradient`` call on 3x3 to 16x16 grids (21, 23,
    34 and 208 us per call on p = 3 grids of 3x3, 8x8, 16x16 and 64x64; 2
    vCPUs, numpy 2.4.6).  A uniform p is kept as a float, so its kernel owns
    one per-pair array, w/(2p)."""

    def __init__(self, spec: ProblemSpec):
        g = spec.graph
        self.graph = g
        self.n = g.n_interior
        self.n_vertices = g.n_vertices
        self.rows, self.cols, self.w = g.ordered_pairs
        # p - 1 at the rows and at the interior: a Python float when p is
        # uniform, which numpy broadcasts (and squares for p = 3).
        p_rows, p_int = spec.p.values[self.rows], spec.p.interior()
        self.pm1, self.pm1_int = _uniform(p_rows) - 1.0, _uniform(p_int) - 1.0
        self.w_2p = self.w / (2.0 * p_rows)
        # each pair's reverse, which the gradient reads only when p varies
        self.rev = None if isinstance(self.pm1, float) else np.lexsort((self.rows, self.cols))
        self.q = spec.q.values
        self.q_p = self.q / p_int
        self.lam = spec.lam
        self.f = spec.f
        self.f0 = spec.f.rate_vector(np.zeros(self.n))  # the source's slope below zero
        self.pad = np.zeros(g.n_boundary)

    def full(self, v: np.ndarray) -> np.ndarray:
        """The vertex array of the interior vector v, zero on the boundary
        (row by row for a (K, n) stack)."""
        if v.ndim == 1:
            return np.concatenate((v, self.pad))
        return np.concatenate((v, np.zeros((len(v), self.pad.size))), axis=1)

    def _primitive(self, t: np.ndarray) -> np.ndarray:
        # F at t >= 0.  Far out, f may overflow and leave the quadrature
        # without a value: F, and so J, is NaN in that row, and every search
        # rejects a non-finite J as it rejects an overflow.
        try:
            return self.f.primitive_vector(t)
        except QuadratureFailure:
            if t.ndim == 1:
                return np.full(t.shape, np.nan)
            return np.stack([self._primitive(row) for row in t])

    def _pass(self, uv: np.ndarray, energy: bool, gradient: bool):
        """((dirichlet, potential, source, J), grad J) at the vertex array uv,
        None in place of the part not asked for.  Both parts read one power
        of each pair's |u(r) - u(c)| and one of each |u(x)|."""
        n, nv, rows = self.n, self.n_vertices, self.rows
        ui = uv[..., :n]
        parts = grad = None
        with np.errstate(over="ignore", invalid="ignore"):
            diff = gather(uv, rows) - gather(uv, self.cols)
            d, abs_u, u_plus = np.abs(diff), np.abs(ui), np.maximum(ui, 0.0)
            t, s = d ** self.pm1, abs_u ** self.pm1_int
            if energy:
                dirichlet = np.add.reduce(t * d * self.w_2p, -1)
                potential = np.add.reduce(s * abs_u * self.q_p, -1)
                # F at u_plus plus the linear continuation below zero
                source = self.lam * np.add.reduce(
                    self._primitive(u_plus) + self.f0 * np.minimum(ui, 0.0), -1)
                # Where two terms overflow, J is inf - inf: NaN, which the
                # descent rejects.  Python floats give it silently.
                J = (float(dirichlet) + float(potential) - float(source) if uv.ndim == 1
                     else dirichlet + potential - source)
                parts = dirichlet, potential, source, J
            if gradient:
                # a_k is twice pair k's term, and the edge part at x is the
                # row sum of (a_k - a_rev(k)) / 2; a uniform p has
                # a_rev(k) = -a_k exactly, so there it is the row sum of a
                a = np.copysign(t, diff) * self.w
                if self.rev is not None:
                    a = 0.5 * a
                    a = a - gather(a, self.rev)
                grad = self._operator(index_sums(rows, a, nv)[..., :n], ui, s, u_plus)
        return parts, grad

    def terms(self, uv: np.ndarray):
        """The Dirichlet, potential and source terms of J at the vertex array
        uv, or three (K,) arrays for a (K, n_vertices) stack."""
        return self._pass(uv, True, False)[0][:3]

    def energy(self, v: np.ndarray):
        """J at the interior vector v, or a (K,) array for a (K, n) stack."""
        return self._pass(self.full(v), True, False)[0][3]

    def _operator(self, edge: np.ndarray, ui: np.ndarray, s: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
        # edge part + q sp(u, p) - lambda f(t) at the interior vertices, with
        # s = |u|^(p-1)
        return edge + self.q * np.copysign(s, ui) - self.lam * self.f.rate_vector(t)

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

    def residual(self, uv: np.ndarray) -> float:
        """Sup-norm over the interior of the original operator at uv >= 0."""
        ui = uv[: self.n]
        with np.errstate(over="ignore", invalid="ignore"):
            val = self._operator(
                minus_laplacian(self.graph, edge_flux(self.graph, self.pm1, uv))[: self.n],
                ui, np.abs(ui) ** self.pm1_int, ui)
        return float(np.abs(val).max())

    def hessian(self, v: np.ndarray):
        """x -> H x, H the exact Hessian of J at the interior vector v; c_k
        and the diagonal are computed once, here."""
        rows, cols, n, nv = self.rows, self.cols, self.n, self.n_vertices
        with np.errstate(over="ignore", invalid="ignore"):
            uv = self.full(v)
            c = self.pm1 * np.abs(uv[rows] - uv[cols]) ** (self.pm1 - 1.0) * self.w
            slope = np.where(v < 0.0, 0.0, self.f.slope_vector(np.maximum(v, 0.0)))
            diag = self.q * self.pm1_int * np.abs(v) ** (self.pm1_int - 1.0) - self.lam * slope

        def product(x: np.ndarray) -> np.ndarray:
            xv = self.full(x)
            with np.errstate(over="ignore", invalid="ignore"):
                e = c * (xv[rows] - xv[cols])
                return 0.5 * (np.bincount(rows, e, nv)[:n] - np.bincount(cols, e, nv)[:n]) \
                    + diag * x

        return product

    def spike_energies(self, t: float, F0: np.ndarray) -> np.ndarray:
        """J(t e_i) for every interior i at once, F0 the primitive at zero:
        the edge term of the pairs at row i or column i, the potential and
        source at i, and F_j(0) elsewhere."""
        n, nv = self.n, self.n_vertices
        # np.power: a float t and a uniform p would give Python's power,
        # which raises on overflow
        a = np.power(t, self.pm1) * t * self.w_2p
        dirichlet = np.bincount(self.rows, a, nv)[:n] + np.bincount(self.cols, a, nv)[:n]
        potential = np.power(t, self.pm1_int) * t * self.q_p
        Ft = self.f.primitive_vector(np.full(n, t))
        return dirichlet + potential - self.lam * (F0.sum() - F0 + Ft)


def _uniform(a: np.ndarray) -> np.ndarray | float:
    """a's one value as a float when every entry holds it, else a."""
    return float(a[0]) if a.size and (a == a[0]).all() else a


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
    operator reads u at every vertex, nonzero boundary values included.
    """
    g = spec.graph
    ui = u.values[: g.n_interior]
    if np.any(ui < 0.0):
        x = g.interior[int(np.argmin(ui))]
        raise NegativeArgument(f"u({x}) < 0: the original problem evaluates f at u itself")
    return spec._kernel.residual(u.values)
