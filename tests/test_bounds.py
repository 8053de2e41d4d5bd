import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import (
    ArctanPower,
    DirichletFunction,
    ExponentField,
    Potential,
    PowerPlus,
    ProblemSpec,
    RegimeTag,
    ball_convexity_certificate,
    check_inequality,
    classify_regime,
    energy_value,
    inequality_bound,
    instance_constants,
    lambda_thresholds,
    norm,
    spike_point,
)
from plap.errors import DegenerateExponent, DomainError, GammaTooSmall

from conftest import (
    ball_convexity_specs,
    cubic_star_spec,
    make_path_graph,
    make_triangle_pendant_graph,
    problem_specs,
    random_dirichlet,
    random_power_spec,
    two_solution_grid,
)

ITEMS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")


def path_constants():
    spec = cubic_star_spec()
    return instance_constants(spec)


def test_bound_a3_path():
    c = path_constants()
    assert inequality_bound("a3", c, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_bound_a7_triangle():
    g = make_triangle_pendant_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 2.0, 1.0), lam=1.0)
    assert inequality_bound("a7", instance_constants(spec)) == pytest.approx(math.sqrt(6.0))


def test_bound_a1():
    c = path_constants()
    assert inequality_bound("a1", c, 1.0) == 1.0


def test_bound_domain_errors():
    c = path_constants()
    with pytest.raises(DomainError):
        inequality_bound("a1", c, 0.5)
    with pytest.raises(DomainError):
        inequality_bound("a3", c, 1.5)
    with pytest.raises(DomainError):
        inequality_bound("a9", c, 2.0)


def test_check_a7_spike():
    spec = cubic_star_spec()
    u = DirichletFunction.from_interior(spec.graph, [1.0])
    lhs, rhs, holds = check_inequality("a7", spec, u)
    assert holds
    assert lhs == 1.0
    assert rhs == pytest.approx(math.sqrt(3.0))


def test_check_all_hold_at_zero():
    spec = cubic_star_spec()
    u = DirichletFunction.zeros(spec.graph)
    for item in ITEMS:
        lhs, rhs, holds = check_inequality(item, spec, u, 2.5)
        assert holds, item
        assert lhs == 0.0
        if item == "a4":
            assert rhs == -1.0  # reads -|S| at u = 0


def test_pair_inequality_right_sides():
    # p^- = 4, p^+ = 6 and pbar^+ = 9 differ, so each of a4/a5/a6 pins its
    # own exponent, and the sign of K2 separates a4 from a5/a6.
    g = make_triangle_pendant_graph()
    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    spec = ProblemSpec(graph=g, p=p, q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 3.0, 1.0), lam=1.0)
    c = instance_constants(spec)
    assert (c.p_minus, c.p_plus, c.pbar_plus) == (4.0, 6.0, 9.0)
    u = DirichletFunction.from_interior(g, [0.9, -1.3, 0.7])
    nu = norm(u)
    for item, e, sign in (("a4", 4.0, -1.0), ("a5", 9.0, 1.0), ("a6", 6.0, 1.0)):
        K1, K2 = inequality_bound(item, c)
        _, rhs, _ = check_inequality(item, spec, u)
        assert rhs == K1 * nu ** e + sign * K2, item


def test_inequality_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(300):
        spec = random_power_spec(rng)
        u = random_dirichlet(rng, spec.graph, -3.0, 3.0)
        m = float(rng.uniform(2.0, 8.0))
        for item in ITEMS:
            lhs, rhs, holds = check_inequality(item, spec, u, m)
            assert holds, (item, lhs, rhs)


def test_a2_left_side_is_the_dense_pair_sum():
    rng = np.random.default_rng(41)
    for _ in range(40):
        spec = random_power_spec(rng)
        u = random_dirichlet(rng, spec.graph, -3.0, 3.0)
        m = float(rng.uniform(2.0, 8.0))
        lhs, _, _ = check_inequality("a2", spec, u, m)
        dense = float(np.sum(np.abs(u.values[None, :] - u.values[:, None]) ** m))
        assert lhs == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_a2_memory_stays_below_the_dense_pair_array():
    # 1,152 vertices: the dense n x n array of differences alone is 10.6 MB.
    spec = two_solution_grid(32, 71, 0)
    u = random_dirichlet(np.random.default_rng(3), spec.graph, -1.0, 1.0)
    instance_constants(spec)
    tracemalloc.start()
    try:
        lhs, _, holds = check_inequality("a2", spec, u, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds
    assert peak < 2 * 2 ** 20, peak
    dense = float(np.sum(np.abs(u.values[None, :] - u.values[:, None]) ** 3.0))
    assert lhs == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_thresholds_cubic_instance():
    c = instance_constants(cubic_star_spec())
    th = lambda_thresholds(c)
    assert th.lambda2 == pytest.approx((1.0 / 18.0) / (1.0 / 36.0 + 0.1), rel=1e-14)
    assert th.t0(0.4) == 1.0
    assert th.gamma0 == pytest.approx(6.0, rel=1e-14)
    assert th.omega_radius == pytest.approx(3.0 ** -0.5, rel=1e-15)


def test_t0_interior_branch():
    # with the exponent gap reversed the closed form sits below 1
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 5.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 2.0, 0.1), lam=0.05)
    th = lambda_thresholds(instance_constants(spec))
    c = instance_constants(spec)
    num = 2.0 * 0.05 * (1.0 / 2.0 + 0.1) * 5.0
    den = 1.0 * (2 * 1 + 2 - 1) + 2.0
    assert th.t0(0.05) == pytest.approx(min(1.0, (num / den) ** (1.0 / 3.0)), rel=1e-14)


def test_t0_is_one_where_its_power_overflows():
    # m1^+ just above p^- = 2 makes the exponent 1/(p^- - m1^+) = -50, and
    # the closed-form power overflows a double: t0 = min(1, +inf) = 1.
    base = two_solution_grid(12, 71, 0)
    g = base.graph
    f = PowerPlus(g, phi=1.0, m=2.02, psi=0.1)
    probe = ProblemSpec(g, base.p, base.q, f, 1.0)
    lam = 0.5 * lambda_thresholds(instance_constants(probe)).lambda2
    spec = ProblemSpec(g, base.p, base.q, f, lam)
    assert lambda_thresholds(instance_constants(spec)).t0(lam) == 1.0
    # spike_point starts from the same t0
    assert spike_point(spec).interior().max() > 0.0


def test_t0_is_one_where_its_base_underflows():
    # q = 1e300 against lambda = 1e-30: num / den underflows to 0.0, and 0.0
    # to the negative power 1/(p^- - m1^+) is +inf: t0 = min(1, +inf) = 1.
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                       q=Potential.constant(g, 1e300),
                       f=PowerPlus(g, 1.0, 4.0, 0.1), lam=1e-30)
    assert lambda_thresholds(instance_constants(spec)).t0(1e-30) == 1.0


def test_triangle_gamma0():
    g = make_triangle_pendant_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 2.0, 1.0), lam=1.0)
    th = lambda_thresholds(instance_constants(spec))
    assert th.gamma0 == pytest.approx(6.0 * math.sqrt(6.0), abs=5e-4)
    assert abs(th.gamma0 - 14.697) < 5e-4


def test_gamma_too_small():
    th = lambda_thresholds(instance_constants(cubic_star_spec()))
    with pytest.raises(GammaTooSmall):
        th.lambda3(th.gamma0)


def test_lambda3_overflow_is_a_domain_error():
    # gamma ** p^- or gamma ** m2^+ leaves the float range: no OverflowError escapes, and
    # classify_regime, which reads lambda3 once the tag can apply, says so too.
    spec = cubic_star_spec(lam=0.005)
    c = instance_constants(spec)
    th = lambda_thresholds(c)
    assert th.lambda3(1e10) > 0.0
    for call in (lambda: th.lambda3(1e300), lambda: classify_regime(c, spec.lam, 1e300)):
        with pytest.raises(DomainError, match="lambda3 overflows at gamma = 1e\\+300"):
            call()


def test_degenerate_exponent():
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 4.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 4.0, 1.0), lam=0.1)
    th = lambda_thresholds(instance_constants(spec))
    with pytest.raises(DegenerateExponent):
        th.t0(0.1)


def test_thresholds_need_envelope():
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 0.0, 2.0, 1.0), lam=1.0)
    with pytest.raises(DomainError):
        lambda_thresholds(instance_constants(spec))


def test_gamma0_exceeds_one():
    rng = np.random.default_rng(32)
    for _ in range(50):
        spec = random_power_spec(rng)
        th = lambda_thresholds(instance_constants(spec))
        assert th.gamma0 > 1.0


def test_lambda3_numerator_positive_beyond_gamma0():
    rng = np.random.default_rng(33)
    for _ in range(50):
        spec = random_power_spec(rng)
        c = instance_constants(spec)
        th = lambda_thresholds(c)
        for frac in rng.uniform(1.0 + 1e-9, 10.0, 4):
            gamma = th.gamma0 * float(frac)
            pm = c.p_minus
            core = (2.0 ** (-pm / 2.0) * c.n_boundary ** (pm / 2.0)
                    * c.n_vertices ** (1.0 - pm) * gamma ** pm - c.n_interior)
            assert c.q_minus * core > 0.0
            assert th.lambda3(gamma) > 0.0


def test_regime_triangle_base():
    g = make_triangle_pendant_graph()
    from plap import ArctanPower

    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    q = Potential(g, {f"x{i}": float(np.exp(i + 31)) for i in range(1, 4)})
    m = {f"x{i}": float(2 * i * i) for i in range(1, 4)}
    phi = {f"x{i}": float(3 * i - 1) for i in range(1, 4)}
    psi = {f"x{i}": float(i) for i in range(1, 4)}
    spec = ProblemSpec(graph=g, p=p, q=q, f=ArctanPower(g, m=m, phi=phi, psi=psi),
                       lam=1e-4)
    c = instance_constants(spec)
    assert c.m1_plus == 18.0 and c.p_minus == 4.0
    regime = classify_regime(c, spec.lam)
    assert regime.has(RegimeTag.EKELAND)
    assert not regime.has(RegimeTag.TWO_SOLUTIONS)  # m1^- = 2 < pbar^+ = 9


def test_regime_triangle_steep():
    g = make_triangle_pendant_graph()
    from plap import ArctanPower

    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    q = Potential(g, {f"x{i}": float(np.exp(i + 31)) for i in range(1, 4)})
    m = {f"x{i}": float(10 * i) for i in range(1, 4)}
    phi = {f"x{i}": float(3 * i - 1) for i in range(1, 4)}
    psi = {f"x{i}": float(i) for i in range(1, 4)}
    spec = ProblemSpec(graph=g, p=p, q=q, f=ArctanPower(g, m=m, phi=phi, psi=psi),
                       lam=1e-4)
    c = instance_constants(spec)
    assert c.m1_minus == 10.0 and c.pbar_plus == 9.0
    regime = classify_regime(c, spec.lam)
    assert regime.has(RegimeTag.TWO_SOLUTIONS)


def test_regime_direct_all_lambda():
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 5.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 3.0, 1.0), lam=250.0)
    regime = classify_regime(instance_constants(spec), spec.lam)
    assert regime.has(RegimeTag.DIRECT_ALL_LAMBDA)


def test_regime_direct_bounded_at_equality():
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 3.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 3.0, 1.0), lam=1.0)
    c = instance_constants(spec)
    th = lambda_thresholds(c)
    below = classify_regime(c, th.lambda1 * 0.5)
    above = classify_regime(c, th.lambda1 * 2.0)
    assert below.has(RegimeTag.DIRECT_BOUNDED)
    assert not above.has(RegimeTag.DIRECT_BOUNDED)
    assert not below.has(RegimeTag.DIRECT_ALL_LAMBDA)


def test_regime_kkt_tag_requires_gamma():
    spec = cubic_star_spec(lam=0.005)
    c = instance_constants(spec)
    th = lambda_thresholds(c)
    gamma = 6.1
    assert th.lambda3(gamma) > 0.005
    with_gamma = classify_regime(c, spec.lam, gamma)
    without = classify_regime(c, spec.lam)
    assert with_gamma.has(RegimeTag.TWO_SOLUTIONS_KKT)
    assert not without.has(RegimeTag.TWO_SOLUTIONS_KKT)


def test_no_envelope_means_no_tags():
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 0.0, 2.0, 1.0), lam=1.0)
    assert classify_regime(instance_constants(spec), 1.0).tags == frozenset()


@st.composite
def sphere_cases(draw):
    """A generated problem with lambda in (0, 1.5 lambda2), and a direction."""
    spec = draw(problem_specs())
    lambda2 = lambda_thresholds(instance_constants(spec)).lambda2
    lam = draw(st.floats(1e-3, 1.5)) * lambda2
    n_int = spec.graph.n_interior
    direction = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_int, max_size=n_int))
    return ProblemSpec(spec.graph, spec.p, spec.q, spec.f, lam), np.array(direction)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(sphere_cases())
def test_sphere_lower_bound_holds_on_the_sphere(case):
    spec, direction = case
    c = instance_constants(spec)
    th = lambda_thresholds(c)
    bound = th.sphere_lower_bound(spec.lam)
    assert (bound > 0.0) == (spec.lam < th.lambda2)
    rho = th.omega_radius
    n = c.n_interior
    points = [np.eye(n)[i] * s for i in range(n) for s in (rho, -rho)]
    nd = float(np.linalg.norm(direction))
    if nd > 1e-9:
        points += [direction * (rho / nd), np.abs(direction) * (rho / nd)]
    for v in points:
        J = energy_value(spec, DirichletFunction.from_interior(spec.graph, v))
        assert J >= bound - 1e-12 * (1.0 + abs(bound)), (J, bound, v)


# -- ball convexity certificate ----------------------------------------------------

def test_ball_convexity_on_the_cubic_path():
    # rho^2 = 1/3, so lambda phi (m-1) rho^(m-2) = lambda against q = 1.
    rho = 3.0 ** -0.5
    assert ball_convexity_certificate(cubic_star_spec(lam=0.4), rho).certified
    cert = ball_convexity_certificate(cubic_star_spec(lam=1.5), rho)
    assert not cert.certified
    assert cert.reason == "lambda phi (m-1) rho^(m-2) = 1.5 >= q = 1 at v1"


def _convexity_threshold(spec, rho):
    f = spec.f
    return float(np.min(spec.q.values / (f.phi * (f.m - 1.0) * rho ** (f.m - 2.0))))


@st.composite
def convexity_cases(draw):
    """A ``ball_convexity_specs`` instance with lambda moved to 0.5-0.99 or
    1.01-2 times the certificate's threshold, and a point of the small ball."""
    spec = draw(ball_convexity_specs())
    rho = instance_constants(spec).n_vertices ** -0.5
    scale = draw(st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)))
    lam = scale * _convexity_threshold(spec, rho)
    n_int = spec.graph.n_interior
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_int, max_size=n_int)))
    nd = float(np.linalg.norm(direction))
    point = direction * (draw(st.floats(0.0, 1.0)) * rho / nd) if nd > 1e-9 else 0.0 * direction
    return ProblemSpec(spec.graph, spec.p, spec.q, spec.f, lam), scale < 1.0, point


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(convexity_cases())
def test_ball_convexity_certificate_is_sound(case):
    spec, below, point = case
    rho = instance_constants(spec).n_vertices ** -0.5
    cert = ball_convexity_certificate(spec, rho)
    assert cert.certified == below
    if not below:
        return
    # The central-difference Hessian of the gradient at the point.
    n, nb = spec.graph.n_interior, spec.graph.n_boundary
    h = 1e-6
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n + nb)
        e[j] = h
        base = np.concatenate((point, np.zeros(nb)))
        H[:, j] = (spec._kernel.gradient_at(base + e) - spec._kernel.gradient_at(base - e)) / (2 * h)
    assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0.0


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(ball_convexity_specs())
def test_ball_convexity_reasons(spec):
    g, rho = spec.graph, instance_constants(spec).n_vertices ** -0.5
    f = spec.f
    arctan = ArctanPower(g, m=f.m, phi=f.phi, psi=f.psi)
    per_vertex = ExponentField(g, np.linspace(2.0, 3.0, g.n_vertices))
    cases = [
        (ProblemSpec(g, spec.p, spec.q, arctan, spec.lam),
         "nonlinearity kind arctan_power has no closed-form bound on the slope of f"),
        (ProblemSpec(g, per_vertex, spec.q, f, spec.lam), "p is not constant on S-bar"),
        (ProblemSpec(g, ExponentField.constant(g, 3.0), spec.q, f, spec.lam),
         "p = 3 is not 2: the Hessian of J degenerates at u = 0"),
    ]
    for case, reason in cases:
        cert = ball_convexity_certificate(case, rho)
        assert (cert.certified, cert.reason) == (False, reason)
