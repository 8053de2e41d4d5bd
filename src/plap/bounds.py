"""Norm inequalities on the Dirichlet space, lambda thresholds, regimes.

The seven inequality constants (a.1)-(a.7) relate power sums of u over the
interior (or of pairwise differences over all vertices) to powers of the
Euclidean norm.  The thresholds lambda1, lambda2, lambda3(gamma), the minimal
annulus radius gamma0, the admissible spike height t0(lambda) and the lower
bound of the energy on the small sphere are closed formulas in the instance
constants; which existence/multiplicity regime applies is read off from the
exponent relations and the thresholds.  ``uniqueness_certificate`` tells in
closed form when the positive solution is unique, and
``ball_convexity_certificate`` when J is strictly convex on the small ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import DirichletFunction, edge_flux, edge_pairing, norm
from .errors import DomainError, DegenerateExponent, GammaTooSmall
from .model import InstanceConstants, PowerPlus, ProblemSpec, instance_constants

_ITEMS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")

# Comparisons between two float evaluations of a true inequality may be off
# by a few ulp at equality cases; allow that much and no more.
_FP_SLACK = 1e-12
# Pair differences held at once by the a2 sum (256 KB of doubles).
_PAIR_BLOCK = 1 << 15


def inequality_bound(which: str, c: InstanceConstants, m: float | None = None):
    """Constant(s) of the named inequality.

    a1/a2/a3/a7 return a single constant K: the bound reads lhs <= K ||u||^m
    (a3: >=; a7: lhs <= K ||u||).  a4/a5/a6 return a pair (K1, K2): the bound
    reads lhs >= K1 ||u||^(p-) - K2 (a4) or lhs <= K1 ||u||^(pbar+/p+) + K2.
    """
    if which not in _ITEMS:
        raise DomainError(f"unknown inequality {which!r}")
    S, dS, Sbar = c.n_interior, c.n_boundary, c.n_vertices
    if which in ("a1", "a2", "a3"):
        if m is None:
            raise DomainError(f"{which} needs the exponent m")
        lo = 1.0 if which == "a1" else 2.0
        if m < lo:
            raise DomainError(f"{which} requires m >= {lo:g}, got m = {m}")
    if which == "a1":
        return float(S)
    if which == "a2":
        return 2.0 ** m * Sbar * S
    if which == "a3":
        return 2.0 ** (-m / 2.0) * dS ** (m / 2.0) * Sbar ** (1.0 - m)
    if which == "a4":
        pm = c.p_minus
        return (2.0 ** (-pm / 2.0) * dS ** (pm / 2.0) * Sbar ** (1.0 - pm), float(S))
    if which == "a5":
        return (c.max_weight * 2.0 ** c.pbar_plus * Sbar * S, c.max_weight * Sbar ** 2)
    if which == "a6":
        return (float(S), float(S))
    return math.sqrt(Sbar)  # a7


def check_inequality(which: str, spec: ProblemSpec, u: DirichletFunction,
                     m: float | None = None) -> tuple[float, float, bool]:
    """Evaluate both sides of the named inequality for this u.

    Returns (lhs, rhs, holds); "holds" allows a 1e-12 relative rounding slack.
    """
    c = instance_constants(spec)
    bound = inequality_bound(which, c, m)
    g = spec.graph
    ui = u.values[: g.n_interior]
    if which in ("a1", "a3"):
        lhs = float(np.sum(np.abs(ui) ** m))
    elif which == "a2":
        # every ordered vertex pair, summed a block of rows at a time
        uv = u.values
        block = max(1, _PAIR_BLOCK // uv.size)
        lhs = float(sum(np.sum(np.abs(uv - uv[k:k + block, None]) ** m)
                        for k in range(0, uv.size, block)))
    elif which in ("a4", "a6"):
        lhs = float(np.sum(np.abs(ui) ** spec.p.interior()))
    elif which == "a5":
        # sum of |u(x)-u(y)|^p(x) w(x,y) = sum a(r, c) (u(r) - u(c)) over pairs
        lhs = edge_pairing(g, edge_flux(g, spec.p, u), u.values)
    else:  # a7
        lhs = float(np.abs(ui).max())
    upper = which not in ("a3", "a4")
    # rhs = K ||u||^e, or K1 ||u||^e + K2 (a5, a6) and - K2 (a4).
    e = {"a4": c.p_minus, "a5": c.pbar_plus, "a6": c.p_plus, "a7": 1.0}.get(which, m)
    K1, K2 = bound if isinstance(bound, tuple) else (bound, None)
    rhs = K1 * norm(u) ** e
    if K2 is not None:
        rhs += K2 if upper else -K2

    slack = _FP_SLACK * (1.0 + abs(lhs) + abs(rhs))
    holds = lhs <= rhs + slack if upper else lhs >= rhs - slack
    return lhs, rhs, bool(holds)


@dataclass(frozen=True)
class LambdaThresholds:
    """Closed-form parameter thresholds of an instance.

    lambda3, t0 and sphere_lower_bound stay parametric (lambda3 depends on
    gamma, the others on lambda); call the methods of the same name.
    """

    lambda1: float
    lambda2: float
    gamma0: float
    omega_radius: float
    constants: InstanceConstants

    def lambda3(self, gamma: float) -> float:
        c = self.constants
        if gamma <= self.gamma0:
            raise GammaTooSmall(f"gamma = {gamma:g} must exceed gamma0 = {self.gamma0:.6g}")
        S, dS, Sbar = c.n_interior, c.n_boundary, c.n_vertices
        pm = c.p_minus
        # q_minus is factored out of the difference: the two numerator terms
        # can involve huge q against O(1) geometry factors.
        try:
            core = 2.0 ** (-pm / 2.0) * dS ** (pm / 2.0) * Sbar ** (1.0 - pm) * gamma ** pm - S
            den = (c.phi2_max * gamma ** c.m2_plus + c.phi2_max
                   + c.psi2_max * math.sqrt(Sbar) * gamma) * S
        except OverflowError:
            raise DomainError(f"lambda3 overflows at gamma = {gamma:g}") from None
        return c.q_minus * core / den

    def t0(self, lam: float) -> float:
        c = self.constants
        if c.p_minus == c.m1_plus:
            raise DegenerateExponent("t0 is undefined when p^- equals m1^+")
        S, dS = c.n_interior, c.n_boundary
        num = 2.0 * lam * (c.phi1_min / c.m1_plus + c.psi1_min) * c.p_minus
        den = c.max_weight * (2 * S + dS - 1) + 2.0 * c.q_plus
        try:
            return min(1.0, (num / den) ** (1.0 / (c.p_minus - c.m1_plus)))
        except (OverflowError, ZeroDivisionError):  # the power is +inf
            return 1.0

    def sphere_lower_bound(self, lam: float) -> float:
        """Lower bound of J over the sphere ||u|| = rho, rho = |Sbar|^(-1/2).

        On that sphere every |u(x)| <= rho <= 1, so |u(x)|^p(x) >= |u(x)|^p+,
        and the F-envelope gives F(x, u(x)) <= phi2/m2- rho^m2- + psi2 (F is
        negative where u(x) < 0).  Dropping the nonnegative edge term and
        applying (a.3) with m = p+ to the potential term gives

            J(u) >= (q-/p+) a3(p+) rho^p+ - lam |S| (phi2/m2- rho^m2- + psi2)
                  = |S| (phi2/m2- |Sbar|^(-m2-/2) + psi2) (lambda2 - lam),

        since lambda2 = (q-/p+) a3(p+) rho^p+ / (|S| (phi2/m2- rho^m2- + psi2)).
        The bound is positive exactly when lam < lambda2.
        """
        c = self.constants
        scale = c.n_interior * (c.phi2_max / c.m2_minus * c.n_vertices ** (-c.m2_minus / 2.0)
                                + c.psi2_max)
        return scale * (self.lambda2 - lam)


def lambda_thresholds(c: InstanceConstants) -> LambdaThresholds:
    """Compute lambda1, lambda2, gamma0 and the omega radius.

    Raises DomainError when the instance has no growth envelope.
    """
    if not c.has_envelope:
        raise DomainError("thresholds need a growth envelope on the nonlinearity")
    S, dS, Sbar = c.n_interior, c.n_boundary, c.n_vertices
    pm, pp = c.p_minus, c.p_plus
    lambda1 = (c.q_minus / pp) * 2.0 ** (-pm / 2.0) * dS ** (pm / 2.0) * Sbar ** (1.0 - pm) \
        / ((c.phi2_max / c.m2_minus + c.psi2_max * math.sqrt(Sbar)) * S)
    lambda2 = (c.q_minus / pp) * 2.0 ** (-pp / 2.0) * dS ** (pp / 2.0) \
        * Sbar ** (1.0 - pp) * Sbar ** (-pp / 2.0) \
        / ((c.phi2_max / c.m2_minus * Sbar ** (-c.m2_minus / 2.0) + c.psi2_max) * S)
    gamma0 = math.sqrt(2.0) * math.sqrt(dS) * Sbar
    return LambdaThresholds(
        lambda1=lambda1, lambda2=lambda2, gamma0=gamma0,
        omega_radius=Sbar ** (-0.5), constants=c,
    )


class RegimeTag(str, Enum):
    DIRECT_ALL_LAMBDA = "DirectAllLambda"
    DIRECT_BOUNDED = "DirectBounded"
    EKELAND = "Ekeland"
    TWO_SOLUTIONS = "TwoSolutions"
    TWO_SOLUTIONS_KKT = "TwoSolutionsKKT"


@dataclass(frozen=True)
class Regime:
    tags: frozenset[RegimeTag]

    def has(self, tag: RegimeTag) -> bool:
        return tag in self.tags

    def sorted_names(self) -> list[str]:
        return sorted(t.value for t in self.tags)


def classify_regime(
    c: InstanceConstants, lam: float, gamma: float | None = None
) -> Regime:
    """Which existence/multiplicity statements apply to (constants, lambda, gamma).

    Tags are independent; several may hold at once.  Instances without a
    growth envelope get the empty tag set.  Raises GammaTooSmall when gamma
    is given and does not exceed gamma0.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    tags: set[RegimeTag] = set()
    if not c.has_envelope:
        return Regime(frozenset())
    th = lambda_thresholds(c)
    if gamma is not None and gamma <= th.gamma0:
        raise GammaTooSmall(f"gamma = {gamma:g} must exceed gamma0 = {th.gamma0:.6g}")
    if c.m2_plus < c.p_minus:
        tags.add(RegimeTag.DIRECT_ALL_LAMBDA)
    if c.m2_plus == c.p_minus and lam < th.lambda1:
        tags.add(RegimeTag.DIRECT_BOUNDED)
    if c.p_minus != c.m1_plus and lam < th.lambda2:
        tags.add(RegimeTag.EKELAND)
    if c.m1_minus > c.pbar_plus and lam < th.lambda2:
        tags.add(RegimeTag.TWO_SOLUTIONS)
    if gamma is not None and c.m1_minus > c.pbar_plus and lam < th.lambda3(gamma):
        tags.add(RegimeTag.TWO_SOLUTIONS_KKT)
    return Regime(frozenset(tags))


@dataclass(frozen=True)
class UniquenessCertificate:
    certified: bool
    reason: str


def uniqueness_certificate(spec: ProblemSpec) -> UniquenessCertificate:
    """Closed-form test that J has at most one critical point.

    It holds when f(x, t) = phi t^(m-1) + psi (``PowerPlus``), p is one
    constant on all of S-bar and every m <= p.  Then

        f(x, t) / t^(p-1) = phi t^(m-p) + psi t^(1-p)

    is strictly decreasing on (0, inf) at every x, since psi > 0.

    Positivity.  Let u be a critical point and let min_S u <= 0 be attained
    at x.  Every edge term sp(u(x) - u(y), p) w(x, y) of the gradient at x is
    <= 0 (u(y) >= u(x) on S, and 0 >= u(x) on the boundary), so is
    q(x) sp(u(x), p), and the source term is -lambda f(x, 0) =
    -lambda psi(x) < 0: the gradient at x is negative, a contradiction.  So every critical point is > 0 on S, and
    with constant p it solves -lap_p u + q u^(p-1) = lambda f(x, u).

    Uniqueness (Diaz & Saa, C. R. Acad. Sci. Paris 305, 1987; the discrete
    Picone inequality).  By the hidden convexity of
    (a, b) -> |a^(1/p) - b^(1/p)|^p on [0, inf)^2 (Brasco & Franzina, Kodai
    Math. J. 37, 2014), E(z) = 1/(2p) sum_{x,y} |z(x)^(1/p) - z(y)^(1/p)|^p
    w(x, y) is convex on the cone z >= 0, z = 0 on the boundary, and its
    gradient at z = u^p is (-lap_p u) / (p u^(p-1)).  Monotonicity of the
    gradient of a convex function, for two positive solutions u and v, reads

        sum_S [(-lap_p u)/u^(p-1) - (-lap_p v)/v^(p-1)] (u^p - v^p) >= 0.

    Substituting the equation cancels q and leaves

        lambda sum_S [f(x, u)/u^(p-1) - f(x, v)/v^(p-1)] (u^p - v^p) >= 0,

    where every term is <= 0 and is 0 only where u(x) = v(x).  So u = v: a
    descent that converges has found the only critical point, and further
    starts can only find it again.
    """
    f = spec.f
    if type(f) is not PowerPlus:
        return UniquenessCertificate(
            False, f"nonlinearity kind {f.kind} has no closed-form monotonicity test")
    if spec.p.values.min() != spec.p.values.max():
        return UniquenessCertificate(False, "p is not constant on S-bar")
    p = float(spec.p.values[0])
    k = int(np.argmax(f.m))
    if f.m[k] > p:
        return UniquenessCertificate(
            False, f"m({spec.graph.interior[k]}) = {f.m[k]:g} > p = {p:g}")
    return UniquenessCertificate(
        True, f"power_plus with constant p = {p:g} and max m = {f.m[k]:g} <= p: "
              f"f(x, t)/t^(p-1) is strictly decreasing, so J has at most one critical point")


def ball_convexity_certificate(spec: ProblemSpec, radius: float) -> UniquenessCertificate:
    """Closed-form test that J is strongly convex on the ball B of that radius.

    It holds when f(x, t) = phi t^(m-1) + psi (``PowerPlus``), p = 2 on all
    of S-bar and lambda phi(x) (m(x) - 1) radius^(m(x) - 2) < q(x) at every
    interior x.

    Proof.  For p = 2 the gradient of J is L_w u + q u - lambda f(x, u_plus),
    where L_w is the weighted Laplacian restricted to the interior: a
    positive semidefinite matrix.  On B every |u(x)| <= radius, and since
    m >= 2 the map t -> f(x, t_plus) is nondecreasing with slope
    d_t f = phi (m - 1) t^(m-2) <= phi (m - 1) radius^(m-2) there (slope 0
    for t < 0).  So the Hessian L_w + diag(q - lambda d_t f(x, u_plus)) is
    bounded below by diag(q - lambda phi (m - 1) radius^(m-2)), which is
    positive definite, and J is strongly convex on the convex set B.  It
    has exactly one minimizer on B, and projected descent from zero reaches
    it: further starts in B can only find it again.
    """
    f = spec.f
    if type(f) is not PowerPlus:
        return UniquenessCertificate(
            False, f"nonlinearity kind {f.kind} has no closed-form bound on the slope of f")
    if spec.p.values.min() != spec.p.values.max():
        return UniquenessCertificate(False, "p is not constant on S-bar")
    p = float(spec.p.values[0])
    if p != 2.0:
        return UniquenessCertificate(
            False, f"p = {p:g} is not 2: the Hessian of J degenerates at u = 0")
    slope = spec.lam * f.phi * (f.m - 1.0) * radius ** (f.m - 2.0)
    q = spec.q.values
    k = int(np.argmax(slope - q))
    if not slope[k] < q[k]:
        return UniquenessCertificate(
            False, f"lambda phi (m-1) rho^(m-2) = {slope[k]:.6g} >= q = {q[k]:.6g} "
                   f"at {spec.graph.interior[k]}")
    return UniquenessCertificate(
        True, f"p = 2 and lambda phi (m-1) rho^(m-2) < q at every interior vertex "
              f"(rho = {radius:.6g}): J is strongly convex on the ball, so it has one "
              f"minimizer there")
