"""Critical-point search: constrained descent, trial points, mountain pass.

All searches are first order.  ``descend`` is projected-gradient descent with
monotone Armijo backtracking (the trial step is a safeguarded Barzilai-Borwein
guess, so small stiff problems converge in tens of iterations).
``mountain_pass`` deforms a piecewise-linear path between two low points: the
highest node climbs along the local path tangent and Armijo-descends in the
transverse directions, terminating when its gradient vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    LambdaThresholds,
    Regime,
    RegimeTag,
    UniquenessCertificate,
    classify_regime,
    lambda_thresholds,
    uniqueness_certificate,
)
from .calculus import DirichletFunction
from .energy import energy_value, gradient_values, residual_original
from .errors import (
    ConstructionFailed,
    DegeneratePath,
    DomainError,
    InfeasiblePoint,
    InfeasibleStart,
    ScanExhausted,
)
from .model import ProblemSpec, instance_constants

_STEP_MIN = 1e-18
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_INIT_STEP = 1.0
_PATH_POINTS = 21
_BB_LO, _BB_HI = 1e-10, 1e10
_NORM_BLOWUP = 1e10


@dataclass(frozen=True)
class SolverOptions:
    grad_tol: float = 1e-9          # sup-norm on the (projected) residual
    max_iter: int = 200_000
    restarts: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iter <= 0:
            raise DomainError("tolerances and iteration budgets must be positive")
        if self.restarts < 0:
            raise DomainError(f"restarts must be nonnegative, got {self.restarts}")


# -- norm constraints on the interior vector ---------------------------------

@dataclass(frozen=True)
class Ball:
    radius: float


@dataclass(frozen=True)
class Annulus:
    zeta: float
    gamma: float


Constraint = Ball | Annulus | None


def _project(constraint: Constraint, v: np.ndarray) -> np.ndarray:
    if constraint is None:
        return v
    nv = float(np.linalg.norm(v))
    if isinstance(constraint, Ball):
        if nv <= constraint.radius:
            return v
        return v * (constraint.radius / nv)
    if constraint.zeta <= nv <= constraint.gamma:
        return v
    target = constraint.zeta if nv < constraint.zeta else constraint.gamma
    if nv == 0.0:
        # Radial projection is undefined at the origin; use a fixed direction.
        out = np.zeros_like(v)
        out[0] = target
        return out
    return v * (target / nv)


def _feasible(constraint: Constraint, v: np.ndarray, tol: float = 1e-9) -> bool:
    if constraint is None:
        return True
    nv = float(np.linalg.norm(v))
    if isinstance(constraint, Ball):
        return nv <= constraint.radius * (1 + tol) + tol
    return constraint.zeta * (1 - tol) - tol <= nv <= constraint.gamma * (1 + tol) + tol


@dataclass(eq=False)
class CriticalPoint:
    u: DirichletFunction
    value: float
    residual_inf: float            # constraint-appropriate residual
    kind: str                      # "Minimizer" | "Saddle" | "Unclassified"
    positive_on_S: bool
    norm: float
    grad_inf: float                # unconstrained gradient sup-norm
    converged: bool
    iterations: int
    residual_orig: float | None = None
    start_seed: int | None = None

    @property
    def accepted(self) -> bool:
        return self.converged and math.isfinite(self.value)


def _full(spec: ProblemSpec, vals_int: np.ndarray) -> np.ndarray:
    return np.concatenate((vals_int, np.zeros(spec.graph.n_boundary)))


def _interior_grad(spec: ProblemSpec, vals_int: np.ndarray) -> np.ndarray:
    return gradient_values(spec, _full(spec, vals_int))[: spec.graph.n_interior]


def _J(spec: ProblemSpec, vals_int: np.ndarray) -> float:
    return energy_value(spec, _full(spec, vals_int))


def _as_point(spec: ProblemSpec, vals_int: np.ndarray, value: float,
              residual: float, kind: str, converged: bool, iterations: int,
              grad_inf: float, seed: int | None = None) -> CriticalPoint:
    u = DirichletFunction.from_interior(spec.graph, vals_int)
    ui = u.interior()
    res_orig = None
    if np.all(ui >= 0.0):
        res_orig = residual_original(spec, u)
    return CriticalPoint(
        u=u, value=value, residual_inf=residual, kind=kind,
        positive_on_S=bool(np.all(ui > 0.0)), norm=float(np.linalg.norm(ui)),
        grad_inf=grad_inf, converged=converged, iterations=iterations,
        residual_orig=res_orig, start_seed=seed,
    )


def _residual_measure(constraint: Constraint, v: np.ndarray, g: np.ndarray) -> float:
    if constraint is None:
        return float(np.max(np.abs(g)))
    return float(np.max(np.abs(v - _project(constraint, v - g))))


def descend(spec: ProblemSpec, u0: DirichletFunction, constraint: Constraint = None,
            opts: SolverOptions | None = None, kind: str = "Minimizer",
            seed: int | None = None) -> CriticalPoint:
    """Monotone projected-gradient descent of J from u0.

    Terminates when the (projected) residual sup-norm drops below grad_tol;
    hitting the iteration budget or the rounding floor returns the best
    iterate flagged (converged=False) instead of raising.
    """
    opts = opts or SolverOptions()
    v = u0.interior().copy()
    if not _feasible(constraint, v):
        raise InfeasibleStart(
            f"start with norm {np.linalg.norm(v):.6g} violates {constraint}"
        )
    v = _project(constraint, v)
    J = _J(spec, v)
    g = _interior_grad(spec, v)
    prev_v: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    converged = False
    best_residual = math.inf
    since_improved = 0
    last_step = _INIT_STEP
    it = 0
    while it < opts.max_iter:
        residual = _residual_measure(constraint, v, g)
        if residual <= opts.grad_tol:
            converged = True
            break
        if residual < 0.9 * best_residual:
            best_residual = residual
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= 300:
                break  # residual plateaued far above the tolerance
        if float(np.max(np.abs(v))) > _NORM_BLOWUP or not math.isfinite(J):
            break
        trial = last_step
        if prev_v is not None:
            s = v - prev_v
            y = g - prev_g
            sy = float(np.dot(s, y))
            if sy > 0.0:
                trial = min(max(float(np.dot(s, s)) / sy, _BB_LO), _BB_HI)
        accepted = False
        new_g = None
        step = trial
        for _ in range(30):
            if step < _STEP_MIN:
                break
            cand = _project(constraint, v - step * g)
            delta = cand - v
            nd2 = float(np.dot(delta, delta))
            if nd2 == 0.0:
                break  # displacement below representable resolution
            Jc = _J(spec, cand)
            if math.isfinite(Jc) and Jc <= J - (_ARMIJO_C / step) * nd2:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            # Near the minimum the J decrease per step drops below the
            # rounding floor of J and Armijo can no longer certify progress;
            # fall back to accepting steps that shrink the residual while
            # leaving J unchanged to rounding.
            jslack = 32.0 * np.finfo(float).eps * (1.0 + abs(J))
            step = trial
            for _ in range(20):
                if step < _STEP_MIN:
                    break
                cand = _project(constraint, v - step * g)
                if not np.any(cand != v):
                    break
                Jc = _J(spec, cand)
                if math.isfinite(Jc) and Jc <= J + jslack:
                    gc = _interior_grad(spec, cand)
                    if _residual_measure(constraint, cand, gc) < residual * (1.0 - 1e-3):
                        accepted = True
                        new_g = gc
                        break
                step *= _BACKTRACK
        if not accepted:
            break
        last_step = max(step, _BB_LO)
        prev_v, prev_g = v, g
        v, J = cand, Jc
        g = new_g if new_g is not None else _interior_grad(spec, v)
        it += 1
    residual = _residual_measure(constraint, v, g)
    converged = converged or residual <= opts.grad_tol
    grad_inf = float(np.max(np.abs(g)))
    return _as_point(spec, v, J, residual, kind, converged, it, grad_inf, seed)


def _random_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(n)
        nd = float(np.linalg.norm(d))
        if nd > 1e-12:
            return d / nd


def _spike_energies(spec: ProblemSpec, t: float, F0: np.ndarray) -> np.ndarray:
    # J(t e_i) for every interior i at once: the edge term of the pairs at
    # row i or column i, the potential and source at i, and F_j(0) elsewhere.
    g = spec.graph
    rows, cols, w = g.ordered_pairs
    a = t ** spec._p_rows / spec._p_rows * w
    n = g.n_interior
    dirichlet = 0.5 * (np.bincount(rows, a, g.n_vertices)[:n]
                       + np.bincount(cols, a, g.n_vertices)[:n])
    pi = spec.p.interior()
    potential = t ** pi / pi * spec.q.values
    Ft = spec.f.primitive_vector(np.full(n, t))
    return dirichlet + potential - spec.lam * (F0.sum() - F0 + Ft)


def spike_point(spec: ProblemSpec, opts: SolverOptions | None = None) -> DirichletFunction:
    """A single-vertex bump with negative energy strictly inside the small ball.

    The first height tried is t0(lambda)/2 (capped below the ball radius);
    because the closed-form t0 can overshoot when the source exponent exceeds
    p^-, the height is halved until J < 0.  Raises ConstructionFailed when no
    admissible height works.
    """
    c = instance_constants(spec)
    radius = c.n_vertices ** -0.5
    t = 0.45 * radius
    if c.has_envelope and c.p_minus != c.m1_plus:
        th = lambda_thresholds(c)
        t = min(0.5 * th.t0(spec.lam), 0.9 * radius)
    n = spec.graph.n_interior
    best: tuple[float, float] | None = None
    F0 = spec.f.primitive_vector(np.zeros(n))
    for _ in range(200):
        vals = _spike_energies(spec, t, F0)
        i_best = int(np.argmin(vals))
        if vals[i_best] < 0.0:
            v = np.zeros(n)
            v[i_best] = t
            return DirichletFunction.from_interior(spec.graph, v)
        if best is None or vals[i_best] < best[0]:
            best = (vals[i_best], t)
        t *= 0.5
        if t < 1e-300:
            break
    raise ConstructionFailed(
        f"no spike height gave negative energy; best J = {best[0]:.6g} at height "
        f"{best[1]:.3g} (ball radius {radius:.6g})"
    )


def hill_point(spec: ProblemSpec, barrier: float, min_norm: float | None = None
               ) -> DirichletFunction:
    """Constant-on-interior trial point with J below the barrier.

    Scans xi = 1, 2, 4, ... (at most 60 doublings) for J(u_xi) < barrier and
    ||u_xi|| above min_norm (defaults to the small-ball radius).
    """
    if min_norm is None:
        min_norm = spec.graph.n_vertices ** -0.5
    n = spec.graph.n_interior
    xi = 1.0
    for _ in range(61):
        v = np.full(n, xi)
        if _J(spec, v) < barrier and float(np.linalg.norm(v)) > min_norm:
            return DirichletFunction.from_interior(spec.graph, v)
        xi *= 2.0
    raise ScanExhausted(
        f"no constant trial point fell below the barrier {barrier:.6g} within 60 doublings"
    )


def _respace(nodes: list[np.ndarray]) -> list[np.ndarray]:
    # Re-interpolate the polyline at uniform arclength, endpoints fixed.
    K = len(nodes)
    seg = [float(np.linalg.norm(nodes[k + 1] - nodes[k])) for k in range(K - 1)]
    total = sum(seg)
    if total <= 0.0:
        return nodes
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, K)
    out = [nodes[0]]
    j = 0
    for t in targets[1:-1]:
        while j < K - 2 and cum[j + 1] < t:
            j += 1
        span = cum[j + 1] - cum[j]
        frac = 0.0 if span == 0.0 else (t - cum[j]) / span
        out.append(nodes[j] + frac * (nodes[j + 1] - nodes[j]))
    out.append(nodes[-1])
    return out


def mountain_pass(spec: ProblemSpec, u0: DirichletFunction, u1: DirichletFunction,
                  path_points: int = _PATH_POINTS, opts: SolverOptions | None = None,
                  barrier: float | None = None) -> CriticalPoint:
    """Deform a piecewise-linear path from u0 to u1 onto the pass point.

    Each sweep moves the highest node in two half-steps: a line ascent along
    the local path tangent, then a monotone Armijo descent transverse to it.
    The other interior nodes relax downhill every few sweeps, and the path is
    re-spaced by arclength every 50 sweeps.  Terminates when the highest
    node's gradient sup-norm drops below grad_tol; that node is returned as a
    Saddle at the pass level (flagged unconverged at the iteration budget).
    """
    opts = opts or SolverOptions()
    K = path_points
    if K < 3:
        raise DomainError("need at least 3 path points")
    a = u0.interior().copy()
    b = u1.interior().copy()
    if barrier is not None and max(_J(spec, a), _J(spec, b)) >= barrier:
        raise DegeneratePath("endpoint energy reaches the separating barrier")
    nodes = [a + (k / (K - 1)) * (b - a) for k in range(K)]
    jvals = [_J(spec, v) for v in nodes]
    # The pass level never exceeds the maximum over any one admissible path;
    # a climb far beyond the initial path maximum means the node is running
    # up an unbounded bowl instead of locating the crest.
    ceiling = max(jvals) + 10.0 * (1.0 + abs(max(jvals)))
    climb_up = _INIT_STEP
    climb_dn = _INIT_STEP
    refine_step = _INIT_STEP
    relax_steps = [_INIT_STEP] * K
    # Energy comparisons bottom out once J differences reach the rounding
    # floor (gradient around sqrt(eps)); below this the climb switches to a
    # gradient-contraction iteration whose acceptance scales with |g| itself.
    switch_tol = max(1e-5, opts.grad_tol)
    stalls = 0
    prefer_close = False
    best_g = math.inf
    since_improved = 0
    it = 0
    respaced_on_degenerate = False
    while it < opts.max_iter:
        it += 1
        k_star = int(np.argmax(jvals))
        if k_star in (0, K - 1):
            # nodes may have drifted off the crest; re-seed them along the
            # polyline once before declaring the geometry degenerate
            if respaced_on_degenerate:
                raise DegeneratePath("path maximum sits at an endpoint")
            respaced_on_degenerate = True
            nodes = _respace(nodes)
            jvals = [_J(spec, v) for v in nodes]
            k_star = int(np.argmax(jvals))
            if k_star in (0, K - 1):
                raise DegeneratePath("path maximum sits at an endpoint")
        v = nodes[k_star]
        g = _interior_grad(spec, v)
        g_inf = float(np.max(np.abs(g)))
        if g_inf <= opts.grad_tol:
            return _as_point(spec, v, jvals[k_star], g_inf, "Saddle", True, it, g_inf)
        if jvals[k_star] > ceiling:
            break  # runaway climb: no certified pass at this scale
        if g_inf < 0.9 * best_g:
            best_g = g_inf
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= 600:
                break  # pass-node residual plateaued far above the tolerance
        tau = nodes[k_star + 1] - nodes[k_star - 1]
        ntau = float(np.linalg.norm(tau))
        tau = tau / ntau if ntau > 0.0 else tau
        # The pass node must deform the path, not tunnel through the
        # landscape (J grows without bound far out, so an uncapped line
        # ascent would jump there); every move stays within half the gap to
        # the neighboring nodes.
        gap = 0.5 * min(
            float(np.linalg.norm(v - nodes[k_star - 1])),
            float(np.linalg.norm(nodes[k_star + 1] - v)),
        )
        moved = False
        if g_inf > switch_tol and gap > 0.0 and not prefer_close:
            # Far phase: ascend J along the tangent line, then Armijo-descend
            # transverse to it.
            slope = float(np.dot(g, tau)) if ntau > 0.0 else 0.0
            if abs(slope) > opts.grad_tol:
                direction = tau if slope > 0.0 else -tau
                stp = min(climb_up, gap)
                for _ in range(40):
                    cand = v + stp * direction
                    Jc = _J(spec, cand)
                    if Jc > jvals[k_star]:
                        v = cand
                        jvals[k_star] = Jc
                        nodes[k_star] = v
                        climb_up = min(stp * 1.5, _BB_HI)
                        moved = True
                        break
                    stp *= 0.5
                else:
                    climb_up = gap  # reset to the geometric scale
                g = _interior_grad(spec, v)
                g_inf = float(np.max(np.abs(g)))
            g_perp = g - float(np.dot(g, tau)) * tau if ntau > 0.0 else g
            gp2 = float(np.dot(g_perp, g_perp))
            if gp2 > (1e-9 * g_inf) ** 2:
                stp = min(climb_dn, gap / math.sqrt(gp2))
                for _ in range(40):
                    cand = v - stp * g_perp
                    Jc = _J(spec, cand)
                    if math.isfinite(Jc) and Jc <= jvals[k_star] - _ARMIJO_C * stp * gp2:
                        nodes[k_star] = cand
                        jvals[k_star] = Jc
                        climb_dn = min(stp * 1.5, _BB_HI)
                        moved = True
                        break
                    stp *= _BACKTRACK
                else:
                    climb_dn = _INIT_STEP
        close_moved = False
        if not moved:
            # Close phase: the J comparisons of the far phase bottom out at the
            # rounding floor near stationarity.  Reverse the gradient component
            # along the tangent and accept steps that shrink the gradient norm
            # while leaving J essentially unchanged (so the node refines the
            # nearby pass point instead of sliding into a minimum).
            force = g - 2.0 * float(np.dot(g, tau)) * tau if ntau > 0.0 else -g
            g2 = float(np.linalg.norm(g))
            jnode = jvals[k_star]
            jslack = 1e-8 * (1.0 + abs(jnode))
            stp = refine_step
            if gap > 0.0 and g2 > 0.0:
                stp = min(stp, gap / g2)
            for _ in range(40):
                cand = v - stp * force
                Jc = _J(spec, cand)
                if (math.isfinite(Jc) and abs(Jc - jnode) <= jslack
                        and float(np.linalg.norm(_interior_grad(spec, cand)))
                        < g2 * (1.0 - 1e-3)):
                    nodes[k_star] = cand
                    jvals[k_star] = Jc
                    refine_step = min(stp * 1.3, _BB_HI)
                    moved = True
                    close_moved = True
                    break
                stp *= 0.5
            else:
                refine_step = _INIT_STEP
        if moved:
            stalls = 0
            if close_moved and not prefer_close:
                # the far phase bottomed out at its J rounding floor while the
                # contraction still works; lead with the contraction from now on
                prefer_close = True
            elif not close_moved:
                prefer_close = False
        else:
            stalls += 1
            prefer_close = False  # retry both phases before giving up
        if stalls >= 8:
            break  # neither phase can improve the pass node
        # Occasionally relax the supporting nodes downhill.  Displacements are
        # capped by the local node spacing so the path cannot tear apart when
        # J is unbounded below away from the pass.
        if it % 5 == 0:
            floor = max(jvals[0], jvals[-1])
            for k in range(1, K - 1):
                if k == k_star:
                    continue
                if jvals[k] <= floor:
                    continue  # already below the endpoint level
                gk = _interior_grad(spec, nodes[k])
                gnorm = float(np.linalg.norm(gk))
                if gnorm == 0.0:
                    continue
                gap = 0.5 * min(
                    float(np.linalg.norm(nodes[k] - nodes[k - 1])),
                    float(np.linalg.norm(nodes[k + 1] - nodes[k])),
                )
                if gap <= 0.0:
                    continue
                stp = min(relax_steps[k], gap / gnorm)
                gk2 = gnorm * gnorm
                for _ in range(30):
                    cand = nodes[k] - stp * gk
                    Jc = _J(spec, cand)
                    if math.isfinite(Jc) and Jc <= jvals[k] - _ARMIJO_C * stp * gk2:
                        nodes[k] = cand
                        jvals[k] = Jc
                        relax_steps[k] = min(stp * 2.0, _BB_HI)
                        break
                    stp *= _BACKTRACK
                else:
                    relax_steps[k] = max(stp, _STEP_MIN)
        if it % 50 == 0:
            nodes = _respace(nodes)
            jvals = [_J(spec, v) for v in nodes]
    k_star = int(np.argmax(jvals))
    g = _interior_grad(spec, nodes[k_star])
    g_inf = float(np.max(np.abs(g)))
    return _as_point(spec, nodes[k_star], jvals[k_star], g_inf, "Saddle", False, it, g_inf)


def kkt_multipliers(spec: ProblemSpec, u: DirichletFunction, zeta: float, gamma: float
                    ) -> tuple[float, float]:
    """Multipliers (sigma, theta) for the annulus constraints at u, kappa = 1.

    sigma = max(0, -<g,u>/||u||^2) when u sits on the outer sphere (within
    1e-8), theta = max(0, <g,u>/||u||^2) on the inner sphere, both zero in
    the open annulus; complementary slackness holds by construction.
    """
    ui = u.interior()
    nu = float(np.linalg.norm(ui))
    tol = 1e-8
    if not (zeta - tol * (1 + zeta) <= nu <= gamma + tol * (1 + gamma)):
        raise InfeasiblePoint(f"||u|| = {nu:.9g} outside [{zeta:.6g}, {gamma:.6g}]")
    g = _interior_grad(spec, ui)
    gu = float(np.dot(g, ui))
    sigma = theta = 0.0
    if abs(nu - gamma) <= tol * (1 + gamma):
        sigma = max(0.0, -gu / nu ** 2)
    if abs(nu - zeta) <= tol * (1 + zeta):
        theta = max(0.0, gu / nu ** 2)
    return sigma, theta


@dataclass
class PositivityReport:
    boundary_zero: bool
    strictly_positive: bool
    negative_part_zero: bool
    min_interior: float
    message: str = ""

    @property
    def passed(self) -> bool:
        return self.boundary_zero and self.strictly_positive and self.negative_part_zero


def verify_positive(spec: ProblemSpec, u: DirichletFunction) -> PositivityReport:
    """Certify zero boundary values and strict interior positivity."""
    g = spec.graph
    bvals = u.values[g.n_interior:]
    ui = u.values[: g.n_interior]
    boundary_zero = bool(np.all(bvals == 0.0)) if bvals.size else True
    min_int = float(ui.min())
    strictly = bool(np.all(ui > 0.0))
    neg_zero = bool(np.all(ui >= 0.0))
    msg = ""
    if not strictly:
        x = g.interior[int(np.argmin(ui))]
        if min_int == 0.0:
            msg = (f"u({x}) = 0: a nonnegative state vanishing at an interior vertex "
                   f"cannot balance the strictly positive source there")
        else:
            msg = f"u({x}) = {min_int:.6g} < 0"
    return PositivityReport(boundary_zero, strictly, neg_zero, min_int, msg)


@dataclass
class KKTInfo:
    sigma: float
    theta: float
    kappa: float
    norm_u: float
    stationarity_inf: float


@dataclass
class SolveReport:
    regime: Regime
    uniqueness: UniquenessCertificate
    thresholds: LambdaThresholds | None
    solutions: list[CriticalPoint]
    sphere_lower_bound: float | None
    kkt: KKTInfo | None
    notes: list[str] = field(default_factory=list)
    seed: int = 0


def _dedupe(points: list[CriticalPoint]) -> list[CriticalPoint]:
    kept: list[CriticalPoint] = []
    for pt in points:
        dup = False
        for other in kept:
            scale = 1.0 + max(pt.norm, other.norm)
            if float(np.max(np.abs(pt.u.values - other.u.values))) <= 1e-7 * scale:
                dup = True
                break
        if not dup:
            kept.append(pt)
    return kept


def solve(spec: ProblemSpec, opts: SolverOptions | None = None,
          gamma: float | None = None) -> SolveReport:
    """Classify the instance and run the matching search strategy.

    Direct regimes run a multistart unconstrained descent; the small-ball
    regime descends inside the ball from a negative-energy spike and random
    starts; the two-solution regimes add a mountain-pass search toward a
    second critical point (and, with gamma, an annulus-constrained
    minimization with KKT multipliers).  When ``uniqueness_certificate``
    holds, the unconstrained descent from zero that converges is the only
    critical point, and the random restarts are skipped.  Sub-operation
    failures become notes; partial results are returned flagged rather than
    raised.
    """
    opts = opts or SolverOptions()
    notes: list[str] = []
    c = instance_constants(spec)
    thresholds: LambdaThresholds | None = None
    if c.has_envelope:
        thresholds = lambda_thresholds(c)
    else:
        notes.append("no growth envelope: thresholds unavailable, no regime applies")
    regime = classify_regime(c, spec.lam, gamma)
    uniqueness = uniqueness_certificate(spec)
    rng = np.random.default_rng(opts.rng_seed)
    n = spec.graph.n_interior
    radius = c.n_vertices ** -0.5

    candidates: list[CriticalPoint] = []
    sphere_bound: float | None = None
    kkt_info: KKTInfo | None = None

    def run(start: np.ndarray, constraint: Constraint, seed: int | None = None) -> CriticalPoint:
        u0 = DirichletFunction.from_interior(spec.graph, _project(constraint, start))
        return descend(spec, u0, constraint, opts, seed=seed)

    two_solution = regime.has(RegimeTag.TWO_SOLUTIONS) or regime.has(RegimeTag.TWO_SOLUTIONS_KKT)
    ball_regime = two_solution or regime.has(RegimeTag.EKELAND)

    if ball_regime:
        sphere_bound = thresholds.sphere_lower_bound(spec.lam)
        if sphere_bound <= 0:
            notes.append(
                f"sphere lower bound {sphere_bound:.6g} is not positive; "
                f"separating barrier not certified"
            )
        starts: list[np.ndarray] = []
        try:
            starts.append(spike_point(spec, opts).interior().copy())
        except ConstructionFailed as exc:
            notes.append(f"spike construction failed: {exc}")
        starts.append(np.zeros(n))
        for _ in range(opts.restarts):
            starts.append(_random_direction(rng, n) * radius * rng.uniform(0.05, 0.95))
        ball_points = [run(s, Ball(radius), seed=i) for i, s in enumerate(starts)]
        interior_ok = [
            pt for pt in ball_points
            if pt.converged and pt.grad_inf <= opts.grad_tol and pt.norm < radius * (1 - 1e-9)
        ]
        best = None
        if interior_ok:
            best = min(interior_ok, key=lambda pt: pt.value)
            candidates.append(best)
        else:
            pinned = min(ball_points, key=lambda pt: pt.value)
            notes.append(
                f"ball-constrained minimum pinned at the boundary or unconverged "
                f"(norm {pinned.norm:.6g}, projected residual {pinned.residual_inf:.3g}); "
                f"not certified as a critical point"
            )
        if two_solution:
            try:
                u_hill = hill_point(spec, sphere_bound)
                u_low = best.u if best is not None else DirichletFunction.zeros(spec.graph)
                saddle = mountain_pass(spec, u_low, u_hill, opts=opts, barrier=sphere_bound)
                candidates.append(saddle)
                if not saddle.converged:
                    notes.append(
                        f"mountain-pass search did not converge "
                        f"(gradient sup-norm {saddle.grad_inf:.3g})"
                    )
            except (ScanExhausted, DegeneratePath) as exc:
                notes.append(f"mountain-pass construction failed: {exc}")
        if regime.has(RegimeTag.TWO_SOLUTIONS_KKT) and gamma is not None:
            zeta = min(max((1.0 + gamma) / 2.0, 1.0 + 1e-9), gamma - 1e-12)
            ann = Annulus(zeta, gamma)
            ann_starts = [np.full(n, zeta / math.sqrt(n))]
            for _ in range(max(2, opts.restarts // 2)):
                ann_starts.append(_random_direction(rng, n) * rng.uniform(zeta, gamma))
            ann_points = [run(s, ann) for s in ann_starts]
            best_ann = min(ann_points, key=lambda pt: pt.value)
            try:
                sigma, theta = kkt_multipliers(spec, best_ann.u, zeta, gamma)
                g = _interior_grad(spec, best_ann.u.interior())
                stat = g + (sigma - theta) * best_ann.u.interior()
                kkt_info = KKTInfo(sigma, theta, 1.0, best_ann.norm,
                                   float(np.max(np.abs(stat))))
                if sigma > 0.0:
                    notes.append(
                        f"annulus minimizer sits on the outer sphere (sigma = {sigma:.6g})"
                    )
                if best_ann.converged and best_ann.grad_inf <= opts.grad_tol:
                    candidates.append(best_ann)
                else:
                    notes.append(
                        f"annulus minimizer is constraint-active "
                        f"(gradient sup-norm {best_ann.grad_inf:.3g}); not a free critical point"
                    )
            except InfeasiblePoint as exc:
                notes.append(f"KKT extraction failed: {exc}")
    else:
        points = [run(np.zeros(n), None, seed=0)]
        if not (uniqueness.certified and points[0].converged):
            for i in range(1, opts.restarts + 1):
                points.append(run(rng.uniform(-0.5, 1.5, n), None, seed=i))
        good = [pt for pt in points if pt.converged]
        if good:
            candidates.append(min(good, key=lambda pt: pt.value))
        else:
            notes.append("no descent run converged; reporting the best iterate flagged")
            candidates.append(min(points, key=lambda pt: pt.value))
        if not regime.tags:
            notes.append("no existence statement applies at this lambda; result is best effort")

    for pt in candidates:
        if not (pt.converged and pt.grad_inf <= opts.grad_tol):
            notes.append(
                f"candidate kept out of the solution list "
                f"(J = {pt.value:.6g}, gradient sup-norm {pt.grad_inf:.3g})"
            )
    solutions = _dedupe([pt for pt in candidates
                         if pt.converged and pt.grad_inf <= opts.grad_tol])
    solutions.sort(key=lambda pt: pt.norm)
    for pt in solutions:
        rep = verify_positive(spec, pt.u)
        if not rep.passed:
            notes.append(f"positivity certificate failed: {rep.message}")
    return SolveReport(
        regime=regime, uniqueness=uniqueness, thresholds=thresholds, solutions=solutions,
        sphere_lower_bound=sphere_bound, kkt=kkt_info, notes=notes,
        seed=opts.rng_seed,
    )
