"""Critical-point search: constrained descent, trial points, minimax saddles.

``descend_all`` runs projected-gradient descents in lock step, each from a
safeguarded Barzilai-Borwein trial step (so small stiff problems converge in
tens of iterations), with J and grad J of every trial from one kernel pass.
A step is accepted by a nonmonotone Armijo test, against the largest of the
last 10 accepted J values (Grippo, Lampariello and Lucidi, SIAM J. Numer.
Anal. 23, 1986; as in the spectral projected gradient method of Birgin,
Martinez and Raydan, SIAM J. Optim. 10, 2000), or, once J changes by less
than its rounding floor, by the slope test of Hager and Zhang's approximate
Wolfe condition (SIAM J. Optim. 16, 2005).  The minimax search's peak steps
keep the monotone test.
``mountain_pass`` is the local minimax method of Li and Zhou (SIAM J. Sci.
Comput. 23, 2001): it lowers the peak of J along rays from a low point, then
finishes with Newton steps solved by MINRES on the exact Hessian product.
"""

from __future__ import annotations

import collections
import contextlib
import functools
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
from .calculus import DirichletFunction, interior_vector
from .energy import residual_original
from .errors import (
    ConstructionFailed,
    DomainError,
    InfeasibleStart,
    ScanExhausted,
)
from .model import ProblemSpec, instance_constants

_STEP_MIN = 1e-18
_ARMIJO_C = 1e-4
_NONMONOTONE_WINDOW = 10
_WOLFE_DELTA = 0.1
_BACKTRACK = 0.5
_INIT_STEP = 1.0
_SCAN_STEPS = 60
_LMM_STEPS = 200
_LMM_BACKTRACKS = 10
_PEAK_WIDTH_MIN = 1e-12
_NEWTON_EARLY = 1e-1
_NEWTON_STEPS = 8
_MINRES_ITER = 500
_BB_LO, _BB_HI = 1e-10, 1e10
_NORM_BLOWUP = 1e10
_FEASIBLE_TOL = 1e-9
_EPS = np.finfo(float).eps


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


# -- the ball constraint on the interior vector: a radius, or None for none ----

def _norm(v: np.ndarray) -> float:
    # The sum of squares overflows above about 1e154; math.hypot does not.
    s = v.dot(v)
    return math.sqrt(s) if s < math.inf else math.hypot(*v)


def _project(radius: float | None, v: np.ndarray) -> np.ndarray:
    if radius is None:
        return v
    nv = _norm(v)
    return v if nv <= radius else v * (radius / nv)


@dataclass(eq=False)
class CriticalPoint:
    """A point of a search, held as its vector v of values on S.  The
    properties are derived from v on first read; ``solve`` drops most unread."""
    v: np.ndarray
    value: float
    residual_inf: float            # constraint-appropriate residual
    kind: str                      # "Minimizer" | "Saddle"
    grad_inf: float                # unconstrained gradient sup-norm
    converged: bool
    iterations: int
    spec: ProblemSpec = field(repr=False)

    @functools.cached_property
    def u(self) -> DirichletFunction:
        return DirichletFunction.from_interior(self.spec.graph, self.v)

    @functools.cached_property
    def norm(self) -> float:
        return math.sqrt(self.v.dot(self.v))

    @functools.cached_property
    def positive_on_S(self) -> bool:
        return bool(np.all(self.v > 0.0))

    @functools.cached_property
    def residual_orig(self) -> float | None:
        """``residual_original`` at u, or None when u < 0 somewhere on S."""
        if not np.all(self.v >= 0.0):
            return None
        return residual_original(self.spec, self.u)


def _residual_measure(radius: float | None, v: np.ndarray, g: np.ndarray) -> float:
    if radius is None:
        return float(np.abs(g).max())
    return float(np.abs(v - _project(radius, v - g)).max())


def _bb_step(s: np.ndarray, y: np.ndarray, ss: float, default: float) -> float:
    """The Barzilai-Borwein step ss/<s, y>, ss = <s, s>, clamped to [_BB_LO,
    _BB_HI], or ``default`` when <s, y> <= 0."""
    sy = float(s.dot(y))
    if sy > 0.0:
        return min(max(ss / sy, _BB_LO), _BB_HI)
    return default


def _descent(radius: float | None, v: np.ndarray, opts: SolverOptions):
    """Projected-gradient descent of J from v, in the ball of the radius or
    free for None, as a generator: it yields each point x it evaluates (its
    start and every trial), is sent (J(x), grad J(x)), and returns (v, J, g,
    residual, iterations) at its last iterate.

    A trial point c with step d = c - v is accepted when J(c) <= max(W) -
    (1e-4/step)|d|^2, W the last 10 accepted J values, the start's included
    (the nonmonotone Armijo test of Grippo, Lampariello and Lucidi), or,
    when |J(c) - J(v)| lies within 32 eps (1 + |J(v)|) so J cannot resolve
    the decrease, when <grad J(c), d> <= (2 delta - 1) <grad J(v), d> with
    delta = 0.1: the trapezoid estimate of a delta-sufficient decrease (Hager
    and Zhang's approximate Wolfe condition).  Otherwise the step halves.
    J may thus rise between iterates, but never above max(W), which passes
    J(start) only by slope-test steps within the rounding floor.
    Terminates when the (projected) residual sup-norm drops below grad_tol;
    hitting the iteration budget, a residual plateau, a blow-up or 30 rejected
    trials returns the last iterate instead of raising."""
    if radius is not None and not _norm(v) <= radius * (1 + _FEASIBLE_TOL) + _FEASIBLE_TOL:
        raise InfeasibleStart(f"start norm {_norm(v):.6g} exceeds the ball radius {radius:.6g}")
    v = _project(radius, v)
    J, g = yield v
    recent = collections.deque([J], maxlen=_NONMONOTONE_WINDOW)
    prev_g: np.ndarray | None = None  # with s = v - v_prev, the last step, and <s, s>
    best_residual = math.inf
    since_improved = 0
    last_step = _INIT_STEP
    it = 0
    while it < opts.max_iter:
        residual = _residual_measure(radius, v, g)
        if residual <= opts.grad_tol:
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
        step = last_step if prev_g is None else _bb_step(s, g - prev_g, ss, last_step)
        accepted = False
        floor = 32.0 * _EPS * (1.0 + abs(J))
        J_ref = max(recent)
        for _ in range(30):
            if step < _STEP_MIN:
                break
            cand = _project(radius, v - step * g)
            delta = cand - v
            nd2 = float(delta.dot(delta))
            if nd2 == 0.0:
                break  # displacement below representable resolution
            Jc, gc = yield cand
            # Armijo, or the slope test where J cannot resolve the decrease.
            if (math.isfinite(Jc) and Jc <= J_ref - (_ARMIJO_C / step) * nd2) or (
                    abs(Jc - J) <= floor
                    and np.dot(gc, delta) <= (2.0 * _WOLFE_DELTA - 1.0) * np.dot(g, delta)):
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            break
        last_step = max(step, _BB_LO)
        prev_g, s, ss = g, delta, nd2
        v, J, g = cand, Jc, gc
        recent.append(J)
        it += 1
    return v, J, g, _residual_measure(radius, v, g), it


def descend_all(spec: ProblemSpec, starts: list[np.ndarray], radius: float | None = None,
                opts: SolverOptions | None = None) -> list[CriticalPoint]:
    """The descents ``_descent`` from a copy of each interior start vector,
    in the ball of the radius or free for None, run in lock step: each round
    answers the points of every running descent with one ``energy_gradient``
    call on their (K, n) stack.  A descent that stops drops out; once one is
    left, it calls the kernel on its own vectors.  Returns the points in the
    order of ``starts``; raises InvariantError (a start of the wrong length)
    or InfeasibleStart (outside the ball) before any evaluation."""
    opts = opts or SolverOptions()
    energy_gradient = spec._kernel.energy_gradient
    lanes = [_descent(radius, interior_vector(spec.graph, s), opts) for s in starts]
    ends: list = [None] * len(lanes)
    # For ``_norm``, whose sum of squares may overflow.  Only constrained
    # descents take norms, and numpy ufuncs run slower under an errstate.
    with np.errstate(over="ignore") if radius is not None else contextlib.nullcontext():
        points = [next(lane) for lane in lanes]
        live = list(range(len(lanes)))
        while len(live) > 1:
            energies, gradients = energy_gradient(np.stack([points[k] for k in live]))
            for k, J, g in zip(tuple(live), energies.tolist(), gradients):
                try:
                    points[k] = lanes[k].send((J, g))
                except StopIteration as stop:
                    ends[k] = stop.value
                    live.remove(k)
        for k in live:  # the last descent: no stacks and no rounds to keep
            lane, x = lanes[k], points[k]
            try:
                while True:
                    x = lane.send(energy_gradient(x))
            except StopIteration as stop:
                ends[k] = stop.value
    return [CriticalPoint(v, J, residual, "Minimizer", float(np.abs(g).max()),
                          residual <= opts.grad_tol, it, spec)
            for v, J, g, residual, it in ends]


def _random_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(n)
        nd = math.sqrt(d.dot(d))
        if nd > 1e-12:
            return d / nd


def spike_point(spec: ProblemSpec) -> np.ndarray:
    """A single-vertex bump, as an interior vector, with negative energy
    strictly inside the small ball.

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
        vals = spec._kernel.spike_energies(t, F0)
        i_best = int(np.argmin(vals))
        if vals[i_best] < 0.0:
            v = np.zeros(n)
            v[i_best] = t
            return v
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
        gamma = max(math.hypot(gbar, beta), _EPS)
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
        cand = v + _minres(spec._kernel.hessian(v), -g, min(2 * v.size, _MINRES_ITER))
        gc = spec._kernel.gradient(cand)
        gc_inf = float(np.abs(gc).max())
        if not gc_inf <= 0.5 * g_inf:
            break
        v, g, g_inf = cand, gc, gc_inf
        steps += 1
    return v, g, steps


def _peak(spec: ProblemSpec, base: np.ndarray, v: np.ndarray, s: float,
          move: float | None = None) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The peak of J along the ray base + s v: the + to - sign change of the
    slope <grad J(base + s v), v>, bracketed from s and solved by Illinois
    regula falsi.  The first probe sits at s (1 + w) or s / (1 + w), where w
    is twice ``move`` (the relative move of the last peak), and w grows
    4-fold per failed probe up to 1; without ``move`` the bracket doubles or
    halves from the start.  None when no sign change lies within a factor
    2^_SCAN_STEPS of s."""
    def slope(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        w = base + t * v
        g = spec._kernel.gradient(w)
        return float(np.dot(g, v)), w, g

    dt = slope(s)[0]
    width = 1.0 if move is None else min(max(2.0 * move, _PEAK_WIDTH_MIN), 1.0)
    t, reach = s, 1.0
    while reach < 2.0 ** _SCAN_STEPS:
        t2 = t * (1.0 + width) if dt > 0.0 else t / (1.0 + width)
        d2 = slope(t2)[0]
        if (d2 > 0.0) != (dt > 0.0):
            break
        t, dt, reach, width = t2, d2, reach * (1.0 + width), min(4.0 * width, 1.0)
    else:
        return None
    (lo, dlo), (hi, dhi) = sorted([(t, dt), (t2, d2)])
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


def mountain_pass(spec: ProblemSpec, u0: np.ndarray, u1: np.ndarray,
                  opts: SolverOptions | None = None, barrier: float | None = None
                  ) -> CriticalPoint:
    """A saddle point of J by the local minimax method of Li and Zhou (SIAM J.
    Sci. Comput. 23, 2001) from the interior vectors u0 (the base point) and
    u1, finished by Newton.  It aims at Morse index 1, which is not checked.

    The peak of J along the ray u0 + s v starts from the direction v of
    u1 - u0.  Each step sets v <- normalize(v - alpha g_perp / s), where
    g_perp is the part of grad J at the peak orthogonal to v, and backtracks
    alpha until the peak value falls by the Armijo amount; a trial peak is
    bracketed from s with twice the relative move of the last accepted peak,
    and a trial direction equal bit for bit to the last one (always when
    g_perp = 0) keeps its peak.
    Once the gradient is 1e-1 of its value at u1, one ``_newton`` run from a
    copy is returned if converged, else the loop goes on.  Once it is 1e-4 of
    that value, or no step is accepted, ``_newton`` finishes.  The point is
    converged when its gradient sup-norm is at most grad_tol and its J
    reaches ``barrier`` (the sphere bound, which no minimizer in the small
    ball can reach).  Raises InvariantError, before any evaluation, for a u0
    or u1 of the wrong length, and ScanExhausted when the ray has no peak.
    """
    opts = opts or SolverOptions()
    base, u1 = interior_vector(spec.graph, u0), interior_vector(spec.graph, u1)
    v = u1 - base
    s = math.sqrt(v.dot(v))
    if s == 0.0:
        raise DomainError("the start direction u1 - u0 is zero")
    v = v / s
    g_first = float(np.abs(spec._kernel.gradient(u1)).max())
    peak = _peak(spec, base, v, s)
    if peak is None:
        raise ScanExhausted(f"no peak of J along the start ray within {_SCAN_STEPS} doublings")
    move, (s, w, g) = abs(peak[0] / s - 1.0), peak
    J = spec._kernel.energy(w)
    alpha = _INIT_STEP
    prev: tuple[np.ndarray, np.ndarray] | None = None
    it = 0
    early = True
    while it < _LMM_STEPS and (g_inf := float(np.abs(g).max())) > 1e-4 * g_first:
        if early and g_inf <= _NEWTON_EARLY * g_first:
            # One Newton attempt from a copy; the loop goes on if it fails.
            early = False
            wn, gn, steps = _newton(spec, w, g, opts.grad_tol)
            gn_inf = float(np.abs(gn).max())
            Jn = spec._kernel.energy(wn) if steps and gn_inf <= opts.grad_tol else J
            if gn_inf <= opts.grad_tol and (barrier is None or Jn >= barrier):
                return CriticalPoint(wn, Jn, gn_inf, "Saddle", gn_inf, True, it + steps, spec)
        g_perp = g - float(np.dot(g, v)) * v
        gp2 = float(np.dot(g_perp, g_perp))
        if prev is not None:
            alpha = _bb_step(dw := w - prev[0], g_perp - prev[1], float(dw.dot(dw)), alpha)
        last = b""
        for _ in range(_LMM_BACKTRACKS):
            trial = v - (alpha / s) * g_perp
            trial /= math.sqrt(trial.dot(trial))
            if trial.tobytes() != last:  # else the same peak, tested at the smaller alpha
                last, peak = trial.tobytes(), _peak(spec, base, trial, s, move)
                Jc = None if peak is None else spec._kernel.energy(peak[1])
            if peak is not None and Jc < J - _ARMIJO_C * alpha * gp2:
                break
            alpha *= _BACKTRACK
        else:
            break
        prev = w, g_perp
        v, move = trial, abs(peak[0] / s - 1.0)
        (s, w, g), J = peak, Jc
        it += 1
    w, g, steps = _newton(spec, w, g, opts.grad_tol)
    J = spec._kernel.energy(w) if steps else J
    g_inf = float(np.abs(g).max())
    converged = g_inf <= opts.grad_tol and (barrier is None or J >= barrier)
    return CriticalPoint(w, J, g_inf, "Saddle", g_inf, converged, it + steps, spec)


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
class SolveReport:
    regime: Regime
    uniqueness: UniquenessCertificate
    ball_convexity: UniquenessCertificate
    thresholds: LambdaThresholds | None
    solutions: list[CriticalPoint]
    sphere_lower_bound: float | None
    notes: list[str] = field(default_factory=list)
    seed: int = 0


def _dedupe(points: list[CriticalPoint]) -> list[CriticalPoint]:
    kept: list[CriticalPoint] = []
    for pt in points:
        if not any(np.abs(pt.v - other.v).max() <= 1e-7 * (1.0 + max(pt.norm, other.norm))
                   for other in kept):
            kept.append(pt)
    return kept


def solve(spec: ProblemSpec, opts: SolverOptions | None = None,
          gamma: float | None = None) -> SolveReport:
    """Classify the instance and run the matching search strategy.

    Direct regimes run a multistart unconstrained descent; the small-ball
    regime descends inside the ball from a negative-energy spike and random
    starts; the two-solution regimes add a mountain-pass search toward a
    second critical point.  gamma only decides the ``TwoSolutionsKKT`` tag,
    which runs the same two searches; ``classify_regime`` raises
    GammaTooSmall when gamma <= gamma0.  When ``uniqueness_certificate``
    holds, the unconstrained descent from zero that converges is the only
    critical point, and the random restarts are skipped.  When
    ``ball_convexity_certificate`` holds, the ball descent from zero that
    converges strictly inside the ball with J < 0 is the only minimizer
    there, and the spike and restart descents are skipped.  Each set of
    independent starts runs as one ``descend_all`` batch.  Sub-operation
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

    def critical(pt: CriticalPoint) -> bool:
        return pt.converged and pt.grad_inf <= opts.grad_tol

    def origin_first(certified: bool, shortcut, ball: float | None, others):
        # The origin and the starts others() descend as one batch, the origin first.
        # A certified origin runs alone first; if shortcut accepts it, nothing else runs.
        if not certified:
            return descend_all(spec, [np.zeros(n)] + others(), ball, opts)
        zero = descend_all(spec, [np.zeros(n)], ball, opts)
        return zero if shortcut(zero[0]) else zero + descend_all(spec, others(), ball, opts)

    two_solution = regime.has(RegimeTag.TWO_SOLUTIONS) or regime.has(RegimeTag.TWO_SOLUTIONS_KKT)
    ball_regime = two_solution or regime.has(RegimeTag.EKELAND)

    if ball_regime:
        sphere_bound = thresholds.sphere_lower_bound(spec.lam)
        if sphere_bound <= 0:
            notes.append(
                f"sphere lower bound {sphere_bound:.6g} is not positive; "
                f"separating barrier not certified"
            )

        def inside(pt: CriticalPoint) -> bool:
            return critical(pt) and pt.norm < radius * (1 - 1e-9)

        def spike_and_restarts() -> list[np.ndarray]:
            restarts = [_random_direction(rng, n) * radius * rng.uniform(0.05, 0.95)
                        for _ in range(opts.restarts)]
            try:
                return [spike_point(spec)] + restarts
            except ConstructionFailed as exc:
                notes.append(f"spike construction failed: {exc}")
                return restarts

        # J(0) = 0, so J < 0 also rejects a descent stalled at u = 0.
        ball_points = origin_first(ball_convexity.certified,
                                   lambda pt: inside(pt) and pt.value < 0.0,
                                   radius, spike_and_restarts)
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
                low = best.v if best is not None else np.zeros(n)
                saddle = mountain_pass(spec, low, low + 1.0, opts=opts, barrier=sphere_bound)
                candidates.append(saddle)
            except ScanExhausted as exc:
                notes.append(f"mountain-pass construction failed: {exc}")
    else:
        points = origin_first(uniqueness.certified, critical, None,
                              lambda: [rng.uniform(-0.5, 1.5, n) for _ in range(opts.restarts)])
        good = [pt for pt in points if critical(pt)]
        if not good:
            notes.append("no descent run converged; reporting the best iterate flagged")
        candidates.append(min(good or points, key=lambda pt: pt.value))
        if not regime.tags:
            notes.append("no existence statement applies at this lambda; result is best effort")

    for pt in candidates:
        if not critical(pt):
            notes.append(
                f"candidate kept out of the solution list "
                f"(J = {pt.value:.6g}, gradient sup-norm {pt.grad_inf:.3g})"
            )
    solutions = _dedupe([pt for pt in candidates if critical(pt)])
    solutions.sort(key=lambda pt: pt.norm)
    for pt in solutions:
        rep = verify_positive(spec, pt.u)
        if not rep.passed:
            notes.append(f"positivity certificate failed: {rep.message}")
    return SolveReport(
        regime=regime, uniqueness=uniqueness, ball_convexity=ball_convexity,
        thresholds=thresholds, solutions=solutions,
        sphere_lower_bound=sphere_bound, notes=notes,
        seed=opts.rng_seed,
    )
