"""Critical-point search: constrained descent, trial points, minimax saddles.

``descend`` is projected-gradient descent that backtracks from a safeguarded
Barzilai-Borwein trial step (so small stiff problems converge in tens of
iterations).  A step is accepted by the Armijo test on J or, once J changes
by less than its rounding floor, by the slope test of Hager and Zhang's
approximate Wolfe condition (SIAM J. Optim. 16, 2005).
``mountain_pass`` is the local minimax method of Li and Zhou (SIAM J. Sci.
Comput. 23, 2001): it lowers the peak of J along rays from a low point, then
finishes with Newton steps solved by MINRES on the exact Hessian product.
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
    ball_convexity_certificate,
    classify_regime,
    lambda_thresholds,
    uniqueness_certificate,
)
from .calculus import DirichletFunction
from .energy import residual_original
from .errors import (
    ConstructionFailed,
    DomainError,
    InfeasiblePoint,
    InfeasibleStart,
    ScanExhausted,
)
from .model import ProblemSpec, instance_constants

_STEP_MIN = 1e-18
_ARMIJO_C = 1e-4
_WOLFE_DELTA = 0.1
_BACKTRACK = 0.5
_INIT_STEP = 1.0
_SCAN_STEPS = 60
_LMM_STEPS = 200
_LMM_BACKTRACKS = 10
_NEWTON_STEPS = 8
_MINRES_ITER = 500
_BB_LO, _BB_HI = 1e-10, 1e10
_NORM_BLOWUP = 1e10


@dataclass(frozen=True)
class SolverOptions:
    grad_tol: float = 1e-9          # sup-norm on the (projected) residual
    max_iter: int = 200_000
    restarts: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf or self.max_iter <= 0:
            raise DomainError("tolerances must be finite and positive, iteration budgets positive")
        if self.restarts < 0:
            raise DomainError(f"restarts must be nonnegative, got {self.restarts}")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be nonnegative, got {self.rng_seed}")


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
    nv = math.sqrt(v.dot(v))
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
    nv = math.sqrt(v.dot(v))
    if isinstance(constraint, Ball):
        return nv <= constraint.radius * (1 + tol) + tol
    return constraint.zeta * (1 - tol) - tol <= nv <= constraint.gamma * (1 + tol) + tol


@dataclass(eq=False)
class CriticalPoint:
    u: DirichletFunction
    value: float
    residual_inf: float            # constraint-appropriate residual
    kind: str                      # "Minimizer" | "Saddle"
    positive_on_S: bool
    norm: float
    grad_inf: float                # unconstrained gradient sup-norm
    converged: bool
    iterations: int
    residual_orig: float | None = None


def _interior_grad(spec: ProblemSpec, vals_int: np.ndarray) -> np.ndarray:
    return spec._kernel.gradient(vals_int)


def _J(spec: ProblemSpec, vals_int: np.ndarray) -> float:
    return spec._kernel.energy(vals_int)


def _hessian(spec: ProblemSpec, vals_int: np.ndarray):
    return spec._kernel.hessian(vals_int)


def _as_point(spec: ProblemSpec, vals_int: np.ndarray, value: float,
              residual: float, kind: str, converged: bool, iterations: int,
              grad_inf: float) -> CriticalPoint:
    u = DirichletFunction.from_interior(spec.graph, vals_int)
    ui = u.interior()
    res_orig = None
    if np.all(ui >= 0.0):
        res_orig = residual_original(spec, u)
    return CriticalPoint(
        u=u, value=value, residual_inf=residual, kind=kind,
        positive_on_S=bool(np.all(ui > 0.0)), norm=math.sqrt(ui.dot(ui)),
        grad_inf=grad_inf, converged=converged, iterations=iterations,
        residual_orig=res_orig,
    )


def _residual_measure(constraint: Constraint, v: np.ndarray, g: np.ndarray) -> float:
    if constraint is None:
        return float(np.abs(g).max())
    return float(np.abs(v - _project(constraint, v - g)).max())


def descend(spec: ProblemSpec, u0: DirichletFunction, constraint: Constraint = None,
            opts: SolverOptions | None = None) -> CriticalPoint:
    """Projected-gradient descent of J from u0.

    A trial point c with step d = c - v is accepted when J(c) <= J(v) -
    (1e-4/step)|d|^2 (Armijo) or, when |J(c) - J(v)| lies within 32 eps
    (1 + |J(v)|) so J cannot resolve the decrease, when <grad J(c), d> <=
    (2 delta - 1) <grad J(v), d> with delta = 0.1: the trapezoid estimate of
    a delta-sufficient decrease (Hager and Zhang's approximate Wolfe
    condition).  Otherwise the step halves.
    Terminates when the (projected) residual sup-norm drops below grad_tol;
    hitting the iteration budget, a residual plateau, a blow-up or 30 rejected
    trials returns the last iterate flagged (converged=False) instead of
    raising.
    """
    opts = opts or SolverOptions()
    v = u0.interior().copy()
    if not _feasible(constraint, v):
        raise InfeasibleStart(
            f"start with norm {math.sqrt(v.dot(v)):.6g} violates {constraint}"
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
        if float(np.abs(v).max()) > _NORM_BLOWUP or not math.isfinite(J):
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
        floor = 32.0 * np.finfo(float).eps * (1.0 + abs(J))
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
            if abs(Jc - J) <= floor:
                # J cannot resolve the decrease; judge it by the slope.
                gc = _interior_grad(spec, cand)
                if np.dot(gc, delta) <= (2.0 * _WOLFE_DELTA - 1.0) * np.dot(g, delta):
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
    grad_inf = float(np.abs(g).max())
    return _as_point(spec, v, J, residual, "Minimizer", converged, it, grad_inf)


def _random_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(n)
        nd = math.sqrt(d.dot(d))
        if nd > 1e-12:
            return d / nd


def _spike_energies(spec: ProblemSpec, t: float, F0: np.ndarray) -> np.ndarray:
    # J(t e_i) for every interior i at once: the edge term of the pairs at
    # row i or column i, the potential and source at i, and F_j(0) elsewhere.
    g = spec.graph
    rows, cols, w = g.ordered_pairs
    p_rows = spec._kernel.p_rows
    a = t ** p_rows / p_rows * w
    n = g.n_interior
    dirichlet = 0.5 * (np.bincount(rows, a, g.n_vertices)[:n]
                       + np.bincount(cols, a, g.n_vertices)[:n])
    pi = spec.p.interior()
    potential = t ** pi / pi * spec.q.values
    Ft = spec.f.primitive_vector(np.full(n, t))
    return dirichlet + potential - spec.lam * (F0.sum() - F0 + Ft)


def spike_point(spec: ProblemSpec) -> DirichletFunction:
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


def _minres(hess, b: np.ndarray, max_iter: int) -> np.ndarray:
    """MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975) for hess(x)
    = b, hess symmetric and possibly indefinite, to relative residual 1e-10."""
    x = w = w2 = np.zeros_like(b)
    beta1 = math.sqrt(b.dot(b))
    r1 = r2 = y = b
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for k in range(max_iter):
        v = y / beta
        y = hess(v)
        if k > 0:
            y = y - (beta / oldb) * r1
        alpha = float(np.dot(v, y))
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(y.dot(y))
        # apply the previous Givens rotation, then eliminate the new beta
        delta, gbar = cs * dbar + sn * alpha, sn * dbar - cs * alpha
        oldeps, epsln, dbar = epsln, sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w2, w = w, (v - oldeps * w2 - delta * w) / gamma
        x = x + phi * w
        if phibar <= 1e-10 * beta1 or beta == 0.0 or not math.isfinite(phibar):
            break
    return x


def _newton(spec: ProblemSpec, v: np.ndarray, g: np.ndarray, grad_tol: float
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton steps from v, each solved by MINRES on the exact Hessian
    product; a step is kept only when it halves the gradient sup-norm."""
    steps = 0
    g_inf = float(np.abs(g).max())
    while steps < _NEWTON_STEPS and g_inf > grad_tol:
        cand = v + _minres(_hessian(spec, v), -g, min(2 * v.size, _MINRES_ITER))
        gc = _interior_grad(spec, cand)
        gc_inf = float(np.abs(gc).max())
        if not gc_inf <= 0.5 * g_inf:
            break
        v, g, g_inf = cand, gc, gc_inf
        steps += 1
    return v, g, steps


def _peak(spec: ProblemSpec, base: np.ndarray, v: np.ndarray, s: float
          ) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The peak of J along the ray base + s v: the + to - sign change of the
    slope <grad J(base + s v), v>, bracketed from s by doubling or halving and
    solved by Illinois regula falsi.  None when no sign change is found."""
    def slope(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        w = base + t * v
        g = _interior_grad(spec, w)
        return float(np.dot(g, v)), w, g

    dt = slope(s)[0]
    factor, t = (2.0 if dt > 0.0 else 0.5), s
    for _ in range(_SCAN_STEPS):
        d2 = slope(t * factor)[0]
        if (d2 > 0.0) != (dt > 0.0):
            break
        t, dt = t * factor, d2
    else:
        return None
    (lo, dlo), (hi, dhi) = sorted([(t, dt), (t * factor, d2)])
    side = 0
    for _ in range(_SCAN_STEPS):
        t = (lo * dhi - hi * dlo) / (dhi - dlo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        d, w, g = slope(t)
        if d > 0.0:  # Illinois: halve the end value kept twice in a row
            lo, dlo, dhi, side = t, d, dhi * (0.5 if side > 0 else 1.0), 1
        else:
            hi, dhi, dlo, side = t, d, dlo * (0.5 if side < 0 else 1.0), -1
        r = g - d * v
        if hi - lo <= 1e-12 * hi or abs(d) <= 1e-3 * math.sqrt(r.dot(r)):
            break
    return t, w, g


def mountain_pass(spec: ProblemSpec, u0: DirichletFunction, u1: DirichletFunction,
                  opts: SolverOptions | None = None, barrier: float | None = None
                  ) -> CriticalPoint:
    """A saddle point of J by the local minimax method of Li and Zhou (SIAM J.
    Sci. Comput. 23, 2001) with base point u0, finished by Newton.  The method
    aims at Morse index 1; the index is not checked.

    The peak of J along the ray u0 + s v starts from the direction v of
    u1 - u0.  Each step sets v <- normalize(v - alpha g_perp / s), where
    g_perp is the part of grad J at the peak orthogonal to v, and backtracks
    alpha until the peak value falls by the Armijo amount.  Once the gradient
    is 1e-4 of its value at u1, or no step is accepted, ``_newton`` finishes.
    The point is converged when its gradient sup-norm is at most grad_tol
    and its J reaches ``barrier`` (the sphere bound, which no minimizer in the
    small ball can reach).  Raises ScanExhausted when the start ray has no peak.
    """
    opts = opts or SolverOptions()
    base = u0.interior().copy()
    v = u1.interior() - base
    s = math.sqrt(v.dot(v))
    if s == 0.0:
        raise DomainError("the start direction u1 - u0 is zero")
    v = v / s
    g_first = float(np.abs(_interior_grad(spec, u1.interior())).max())
    peak = _peak(spec, base, v, s)
    if peak is None:
        raise ScanExhausted(f"no peak of J along the start ray within {_SCAN_STEPS} doublings")
    s, w, g = peak
    J = _J(spec, w)
    alpha = _INIT_STEP
    prev: tuple[np.ndarray, np.ndarray] | None = None
    it = 0
    while it < _LMM_STEPS and float(np.abs(g).max()) > 1e-4 * g_first:
        g_perp = g - float(np.dot(g, v)) * v
        gp2 = float(np.dot(g_perp, g_perp))
        if prev is not None:
            dw, dg = w - prev[0], g_perp - prev[1]
            sy = float(np.dot(dw, dg))
            if sy > 0.0:
                alpha = min(max(float(np.dot(dw, dw)) / sy, _BB_LO), _BB_HI)
        for _ in range(_LMM_BACKTRACKS):
            trial = v - (alpha / s) * g_perp
            trial /= math.sqrt(trial.dot(trial))
            peak = _peak(spec, base, trial, s)
            if peak is not None:
                Jc = _J(spec, peak[1])
                if Jc < J - _ARMIJO_C * alpha * gp2:
                    break
            alpha *= _BACKTRACK
        else:
            break
        prev = w, g_perp
        v = trial
        (s, w, g), J = peak, Jc
        it += 1
    w, g, steps = _newton(spec, w, g, opts.grad_tol)
    J = _J(spec, w) if steps else J
    g_inf = float(np.abs(g).max())
    converged = g_inf <= opts.grad_tol and (barrier is None or J >= barrier)
    return _as_point(spec, w, J, g_inf, "Saddle", converged, it + steps, g_inf)


def kkt_multipliers(spec: ProblemSpec, u: DirichletFunction, zeta: float, gamma: float
                    ) -> tuple[float, float]:
    """Multipliers (sigma, theta) for the annulus constraints at u, kappa = 1.

    sigma = max(0, -<g,u>/||u||^2) when u sits on the outer sphere (within
    1e-8), theta = max(0, <g,u>/||u||^2) on the inner sphere, both zero in
    the open annulus; complementary slackness holds by construction.
    """
    ui = u.interior()
    nu = math.sqrt(ui.dot(ui))
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
    ball_convexity: UniquenessCertificate
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
            if float(np.abs(pt.u.values - other.u.values).max()) <= 1e-7 * scale:
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
    critical point, and the random restarts are skipped.  When
    ``ball_convexity_certificate`` holds, the ball descent from zero that
    converges strictly inside the ball with J < 0 is the only minimizer
    there, and the spike and restart descents are skipped; their starts are
    still drawn, so the annulus starts read the same stream.  Sub-operation
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
    ball_convexity = ball_convexity_certificate(spec, radius)

    candidates: list[CriticalPoint] = []
    sphere_bound: float | None = None
    kkt_info: KKTInfo | None = None

    def run(start: np.ndarray, constraint: Constraint) -> CriticalPoint:
        u0 = DirichletFunction.from_interior(spec.graph, _project(constraint, start))
        return descend(spec, u0, constraint, opts)

    two_solution = regime.has(RegimeTag.TWO_SOLUTIONS) or regime.has(RegimeTag.TWO_SOLUTIONS_KKT)
    ball_regime = two_solution or regime.has(RegimeTag.EKELAND)

    if ball_regime:
        sphere_bound = thresholds.sphere_lower_bound(spec.lam)
        if sphere_bound <= 0:
            notes.append(
                f"sphere lower bound {sphere_bound:.6g} is not positive; "
                f"separating barrier not certified"
            )
        restarts = [_random_direction(rng, n) * radius * rng.uniform(0.05, 0.95)
                    for _ in range(opts.restarts)]

        def inside(pt: CriticalPoint) -> bool:
            return pt.converged and pt.grad_inf <= opts.grad_tol and pt.norm < radius * (1 - 1e-9)

        ball = Ball(radius)
        zero = run(np.zeros(n), ball)
        # J(0) = 0, so J < 0 also rejects a descent stalled at u = 0.
        if ball_convexity.certified and inside(zero) and zero.value < 0.0:
            ball_points = [zero]
        else:
            ball_points = []
            try:
                ball_points.append(run(spike_point(spec).interior(), ball))
            except ConstructionFailed as exc:
                notes.append(f"spike construction failed: {exc}")
            ball_points.append(zero)
            ball_points += [run(s, ball) for s in restarts]
        interior_ok = [pt for pt in ball_points if inside(pt)]
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
                u_low = best.u if best is not None else DirichletFunction.zeros(spec.graph)
                u_up = DirichletFunction.from_interior(spec.graph, u_low.interior() + 1.0)
                saddle = mountain_pass(spec, u_low, u_up, opts=opts, barrier=sphere_bound)
                candidates.append(saddle)
                if not saddle.converged:
                    notes.append(
                        f"mountain-pass search did not converge (gradient sup-norm "
                        f"{saddle.grad_inf:.3g}, J = {saddle.value:.6g} against the sphere "
                        f"bound {sphere_bound:.6g})"
                    )
            except ScanExhausted as exc:
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
                                   float(np.abs(stat).max()))
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
        points = [run(np.zeros(n), None)]
        if not (uniqueness.certified and points[0].converged):
            for _ in range(opts.restarts):
                points.append(run(rng.uniform(-0.5, 1.5, n), None))
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
        regime=regime, uniqueness=uniqueness, ball_convexity=ball_convexity,
        thresholds=thresholds, solutions=solutions,
        sphere_lower_bound=sphere_bound, kkt=kkt_info, notes=notes,
        seed=opts.rng_seed,
    )
