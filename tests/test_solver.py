import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plap.solver
from plap import (
    Ball,
    DirichletFunction,
    ExponentField,
    Potential,
    PowerPlus,
    ProblemSpec,
    RegimeTag,
    SolverOptions,
    ball_convexity_certificate,
    build_graph,
    classify_regime,
    descend_all,
    energy_value,
    fixture_path,
    instance_constants,
    lambda_thresholds,
    mountain_pass,
    parse_problem,
    solve,
    spike_point,
    verify_positive,
)
from plap.energy import EvaluationKernel
from plap.errors import DomainError, GammaTooSmall, InfeasibleStart, ScanExhausted
from plap.reporting import solve_report_document

from conftest import (
    ball_convexity_specs,
    bisect_roots,
    constant_source_spec,
    cubic_star_spec,
    descend,
    make_cycle_pendant_graph,
    make_path_graph,
    make_triangle_pendant_graph,
    problem_specs,
    random_coercive_spec,
    random_dirichlet,
    random_power_spec,
    scalar_equation,
    two_solution_grid,
    unique_solution_specs,
)

FAST = SolverOptions(restarts=3)


def test_descend_scalar_instance():
    spec = constant_source_spec()
    pt = descend(spec, DirichletFunction.zeros(spec.graph), None, FAST)
    assert pt.converged
    assert pt.u.value("v1") == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert pt.residual_inf <= FAST.grad_tol


def test_descend_monotone_energy():
    spec = cubic_star_spec()
    g = spec.graph
    start = DirichletFunction.from_interior(g, [0.55])
    prev = energy_value(spec, start)
    for k in range(1, 12):
        pt = descend(spec, start, None, SolverOptions(max_iter=k))
        val = pt.value
        assert val <= prev + 64 * np.finfo(float).eps * (1 + abs(prev))
        prev = val


def _floor(J):
    # The slope test's rounding floor of J: 32 eps (1 + |J|).
    return 32 * np.finfo(float).eps * (1 + abs(J))


def test_descent_accepts_a_rise_in_J_below_the_window_maximum():
    # A trial point is judged against the largest of the last 10 accepted J
    # values (Grippo, Lampariello and Lucidi), not against the current one.
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    zero = DirichletFunction.zeros(spec.graph)
    ball = Ball(spec.graph.n_vertices ** -0.5)
    Js = [0.0] + [descend(spec, zero, ball, SolverOptions(max_iter=k)).value
                  for k in range(1, 21)]
    rises = [k for k in range(1, 21) if Js[k] > Js[k - 1] + _floor(Js[k - 1])]
    assert rises
    for k in range(1, 21):
        assert Js[k] <= max(Js[max(0, k - 10):k]) + _floor(Js[k - 1])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(problem_specs(), st.integers(0, 2 ** 32 - 1))
def test_descent_never_ends_above_its_start(spec, seed):
    # J may rise between iterates, but never above the window maximum, which
    # grows past J(start) only by slope-test steps within the rounding floor.
    start = random_dirichlet(np.random.default_rng(seed), spec.graph, -1.0, 2.0)
    J0 = energy_value(spec, start)
    for k in range(1, 13):
        pt = descend(spec, start, None, SolverOptions(max_iter=k))
        assert pt.value <= J0 + k * 2 * _floor(J0), (k, pt.value, J0)


def test_descend_coercive_multistart():
    rng = np.random.default_rng(41)
    for k in range(8):
        spec = random_coercive_spec(rng)
        pts = [descend(spec, random_dirichlet(rng, spec.graph, -1, 2), None, FAST)
               for _ in range(4)]
        for pt in pts:
            assert pt.converged
            assert pt.residual_inf <= 1e-9


def test_descend_infeasible_start():
    spec = cubic_star_spec()
    u = DirichletFunction.from_interior(spec.graph, [5.0])
    with pytest.raises(InfeasibleStart):
        descend(spec, u, Ball(1.0), FAST)


def test_ball_descent_respects_constraint():
    spec = cubic_star_spec(lam=0.4)
    r = 3.0 ** -0.5
    pt = descend(spec, DirichletFunction.zeros(spec.graph), Ball(r), FAST)
    assert pt.norm <= r * (1 + 1e-12)
    assert pt.converged
    assert pt.u.value("v1") == pytest.approx(0.013333649405, abs=1e-9)


def test_spike_point_cubic():
    spec = cubic_star_spec(lam=0.4)
    th = lambda_thresholds(instance_constants(spec))
    assert th.t0(0.4) == 1.0
    u = spike_point(spec)
    assert energy_value(spec, u) < 0.0
    assert np.linalg.norm(u.interior()) < th.omega_radius
    assert np.count_nonzero(u.interior()) == 1


def test_spike_point_beyond_lambda2_still_tries():
    spec = cubic_star_spec(lam=0.6)  # above lambda2 ~ 0.4348
    u = spike_point(spec)
    assert energy_value(spec, u) < 0.0


def test_mountain_pass_exhausts_on_coercive_landscape():
    # J grows without bound along every ray: there is no peak to start from.
    g = make_path_graph()
    spec = ProblemSpec(graph=g, p=ExponentField.constant(g, 4.0),
                       q=Potential.constant(g, 1.0),
                       f=PowerPlus(g, 1.0, 3.0, 1.0), lam=1e-8)
    zero = DirichletFunction.zeros(g)
    with pytest.raises(ScanExhausted):
        mountain_pass(spec, zero, DirichletFunction.from_interior(g, [1.0]), FAST)


def hill_energy_bound(spec, xi):
    c = instance_constants(spec)
    S, dS = c.n_interior, c.n_boundary
    return (1.0 / (2.0 * c.pbar_minus)) * (dS + S) * xi ** c.pbar_plus * c.max_weight \
        + (c.q_plus / c.p_minus) * S * xi ** c.p_plus \
        - spec.lam * S * (c.phi1_min * xi ** c.m1_minus / c.m1_plus + c.psi1_min * xi)


def test_hill_energy_bound_on_matching_cross_graphs():
    # The constant-trial-point majorant counts one interior-boundary pair per
    # vertex, so it is valid when the cross edges form a matching.
    rng = np.random.default_rng(43)
    for _ in range(25):
        g = make_cycle_pendant_graph(rng, k=int(rng.integers(3, 6)))
        ni = g.n_interior
        spec = ProblemSpec(
            graph=g,
            p=ExponentField(g, rng.uniform(2.0, 5.0, g.n_vertices)),
            q=Potential(g, rng.uniform(0.5, 2.0, ni)),
            f=PowerPlus(g, rng.uniform(0.1, 2.0, ni), rng.uniform(2.0, 8.0, ni),
                        rng.uniform(0.1, 2.0, ni)),
            lam=float(rng.uniform(0.1, 2.0)),
        )
        for xi in (1.0, 2.0, 4.0, 16.0):
            u = DirichletFunction.from_interior(g, np.full(ni, xi))
            bound = hill_energy_bound(spec, xi)
            assert energy_value(spec, u) <= bound + 1e-9 * (1 + abs(bound))


def test_mountain_pass_cubic_saddle():
    spec = cubic_star_spec(lam=0.4)
    roots = bisect_roots(scalar_equation(spec))
    assert len(roots) == 2
    low = descend(spec, DirichletFunction.zeros(spec.graph), Ball(3.0 ** -0.5), FAST)
    barrier = lambda_thresholds(instance_constants(spec)).sphere_lower_bound(spec.lam)
    u1 = DirichletFunction.from_interior(spec.graph, low.u.interior() + 1.0)
    saddle = mountain_pass(spec, low.u, u1, FAST, barrier=barrier)
    assert saddle.converged
    assert saddle.kind == "Saddle"
    assert saddle.u.value("v1") == pytest.approx(roots[1], abs=1e-6)
    assert saddle.residual_orig <= 1e-12
    assert saddle.value >= barrier
    assert saddle.value > max(energy_value(spec, low.u), energy_value(spec, u1)) \
        + 10 * FAST.grad_tol
    assert np.max(np.abs(saddle.u.values - low.u.values)) > 1e-6


@pytest.mark.parametrize("side, seed, member", [(5, 7, 0), (8, 71, 0), (12, 71, 0), (24, 7, 0)])
def test_solve_reports_both_solutions_on_two_solution_grids(side, seed, member):
    spec = two_solution_grid(side, seed, member)
    rep = solve(spec)
    assert len(rep.solutions) == 2, rep.notes
    for pt in rep.solutions:
        assert pt.residual_orig <= 1e-8
        assert verify_positive(spec, pt.u).passed
    saddle = next(pt for pt in rep.solutions if pt.kind == "Saddle")
    assert saddle.value >= rep.sphere_lower_bound > 0.0


def test_ball_restarts_find_the_minimizer_on_the_64_grid():
    # Here the descents from the origin and from the spike both stop at once
    # (J = 0 and a stalled spike point); only a random restart in the ball
    # reaches the strictly positive minimizer.
    spec = two_solution_grid(64, 71, 0)
    rep = solve(spec)
    assert sorted(pt.kind for pt in rep.solutions) == ["Minimizer", "Saddle"]
    minimizer = next(pt for pt in rep.solutions if pt.kind == "Minimizer")
    assert np.all(minimizer.u.interior() > 0.0)
    assert verify_positive(spec, minimizer.u).passed
    assert rep.notes == []


def test_minres_matches_a_dense_solve():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    eig = np.concatenate([[-3.0, -0.5], rng.uniform(0.2, 5.0, 10)])
    A = (q * eig) @ q.T
    b = rng.standard_normal(12)
    x = plap.solver._minres(lambda y: A @ y, b, 50)
    assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-8


def _count_saddle_search(monkeypatch) -> tuple[dict, list]:
    """Count the J, gradient and Hessian-product evaluations made inside
    ``mountain_pass`` from here on; also collect the points it returns."""
    counts = {"J": 0, "grad": 0, "hess": 0}
    active = [False]
    points = []
    search = plap.solver.mountain_pass

    def counting(fn, key):
        def wrapped(kernel, v):
            counts[key] += active[0]
            return fn(kernel, v)
        return wrapped

    def traced_search(*args, **kwargs):
        active[0] = True
        try:
            points.append(search(*args, **kwargs))
        finally:
            active[0] = False
        return points[-1]

    monkeypatch.setattr(EvaluationKernel, "energy", counting(EvaluationKernel.energy, "J"))
    monkeypatch.setattr(EvaluationKernel, "gradient",
                        counting(EvaluationKernel.gradient, "grad"))
    hessian = EvaluationKernel.hessian

    def counting_hessian(kernel, v):
        product = hessian(kernel, v)

        def counted(x):
            counts["hess"] += active[0]
            return product(x)
        return counted

    monkeypatch.setattr(EvaluationKernel, "hessian", counting_hessian)
    monkeypatch.setattr(plap.solver, "mountain_pass", traced_search)
    return counts, points


def test_failing_saddle_search_stops_after_a_bounded_number_of_evaluations(monkeypatch):
    # On the steep fixture the gradient's rounding floor (J is about 1e17)
    # lies far above grad_tol, so the search cannot succeed; it must give up
    # after a fixed number of energy, gradient and Hessian-product
    # evaluations.
    from plap import fixture_path, load_problem

    spec = load_problem(fixture_path("triangle_pendant_steep.json")).spec
    counts, points = _count_saddle_search(monkeypatch)
    rep = solve(spec)
    [point] = points
    assert not point.converged
    assert (f"candidate kept out of the solution list (J = {point.value:.6g}, "
            f"gradient sup-norm {point.grad_inf:.3g})") in rep.notes
    assert counts["J"] <= 20 and counts["grad"] + counts["hess"] <= 400, counts


def test_saddle_search_on_the_12_grid_stays_within_its_evaluation_budget(monkeypatch):
    # The warm-started peak brackets and the early Newton attempt bring the
    # search to 124 gradients and 25 J calls (213 and 40 with cold brackets
    # and Newton only at 1e-4 of the first gradient).
    counts, points = _count_saddle_search(monkeypatch)
    rep = solve(two_solution_grid(12, 71, 0))
    [point] = points
    assert point.converged and point in rep.solutions
    assert counts["grad"] <= 150 and counts["J"] <= 30, counts


@pytest.mark.parametrize("fraction", [0.5, 0.9])
def test_saddle_survives_where_a_bare_newton_handoff_loses_it(fraction):
    # The 28th draw has 3 interior vertices and per-vertex p in [2.45, 3.82].
    # Newton started once the peak gradient falls to 1e-1, 1e-2 or 1e-3 of
    # its first value stalls at a gradient of 4.5e-6 to 3.9e-5 here, so only
    # the minimax loop that goes on after a failed attempt finds the saddle.
    rng = np.random.default_rng(123)
    for _ in range(28):
        spec = random_power_spec(rng, n_max=12)
    lambda2 = lambda_thresholds(instance_constants(spec)).lambda2
    rep = solve(ProblemSpec(spec.graph, spec.p, spec.q, spec.f, fraction * lambda2))
    assert sorted(pt.kind for pt in rep.solutions) == ["Minimizer", "Saddle"], rep.notes


def _saddle_search_start(spec):
    """The base point, start point and barrier that ``solve`` hands to
    ``mountain_pass``."""
    radius = instance_constants(spec).n_vertices ** -0.5
    low = descend(spec, DirichletFunction.zeros(spec.graph), Ball(radius))
    u1 = DirichletFunction.from_interior(spec.graph, low.u.interior() + 1.0)
    barrier = lambda_thresholds(instance_constants(spec)).sphere_lower_bound(spec.lam)
    return low.u, u1, barrier


def test_failed_early_newton_attempt_falls_back_to_the_minimax_loop(monkeypatch):
    spec = two_solution_grid(5, 7, 0)
    u0, u1, barrier = _saddle_search_start(spec)
    direct = mountain_pass(spec, u0, u1, barrier=barrier)
    newton = plap.solver._newton
    calls = []

    def failing_first(spec, v, g, grad_tol):
        calls.append(v)  # the first call, the early attempt, makes no step
        return (v, g, 0) if len(calls) == 1 else newton(spec, v, g, grad_tol)

    monkeypatch.setattr(plap.solver, "_newton", failing_first)
    fallback = mountain_pass(spec, u0, u1, barrier=barrier)
    assert len(calls) == 2  # the early attempt, then the final finish
    assert direct.converged and fallback.converged
    assert fallback.value == pytest.approx(direct.value, rel=1e-10, abs=0.0)
    assert fallback.iterations > direct.iterations


@functools.cache
def _peak_rays(side):
    """A two-solution grid and the base point of its saddle search."""
    spec = two_solution_grid(side, 7, 0)
    return spec, _saddle_search_start(spec)[0].interior()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(side=st.sampled_from([3, 5]), seed=st.integers(0, 2 ** 32 - 1),
       downhill=st.booleans(), s=st.floats(1e-2, 1e3),
       width=st.sampled_from([1e-6, 1e-3, 1.0]))
def test_warm_peak_brackets_find_the_peak_of_the_cold_search(side, seed, downhill, s, width):
    # A ray with no positive component has no peak: the source term fades
    # along it and J grows.
    spec, base = _peak_rays(side)
    v = np.random.default_rng(seed).standard_normal(base.size)
    v = (-np.abs(v) if downhill else v) / np.sqrt(v.dot(v))
    seen = []  # (t, slope) of every probe of the warm search

    def gradient(x):
        g = spec._kernel.gradient(x)
        seen.append((float(np.dot(x - base, v)), float(np.dot(g, v))))
        return g

    recording = SimpleNamespace(_kernel=SimpleNamespace(gradient=gradient))
    warm = plap.solver._peak(recording, base, v, s, width / 2)
    cold = plap.solver._peak(spec, base, v, s)
    assert (warm is None) == (cold is None) == downhill
    if downhill:
        return
    ends = []
    for _, w, g in (warm, cold):
        t, d = float(np.dot(w - base, v)), float(np.dot(g, v))
        ends.append((t, d, spec._kernel.energy(w)))
    (t, d, J), (t_cold, d_cold, J_cold) = ends
    # The warm peak meets the stop test inside a bracket of opposite slopes.
    lo = max(tx for tx, dx in seen if dx > 0.0 and tx <= t)
    hi = min(tx for tx, dx in seen if dx <= 0.0 and tx >= t)
    r = warm[2] - d * v
    assert hi - lo <= 1e-12 * hi or abs(d) <= 1e-3 * np.sqrt(r.dot(r))
    # Both ends sit on one concave cap of J, so J differs by at most the
    # larger slope times their distance: the stop test's own tolerance.
    bound = max(abs(d), abs(d_cold)) * abs(t - t_cold) + 1e-12 * abs(J_cold)
    assert abs(J - J_cold) <= bound


def test_verify_positive_pass_and_fail():
    spec = constant_source_spec()
    good = DirichletFunction.from_interior(spec.graph, [1.0 / 3.0])
    rep = verify_positive(spec, good)
    assert rep.passed
    assert rep.min_interior == pytest.approx(1.0 / 3.0)

    zero = DirichletFunction.zeros(spec.graph)
    rep = verify_positive(spec, zero)
    assert not rep.passed
    assert "cannot balance" in rep.message

    neg = DirichletFunction.from_interior(spec.graph, [-0.2])
    rep = verify_positive(spec, neg)
    assert not rep.passed and not rep.negative_part_zero


def test_solve_scalar_instance():
    spec = constant_source_spec()
    rep = solve(spec, FAST)
    assert len(rep.solutions) == 1
    pt = rep.solutions[0]
    assert pt.u.value("v1") == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert pt.residual_orig <= 1e-10
    assert pt.positive_on_S


def test_solve_cubic_two_solutions():
    spec = cubic_star_spec(lam=0.4)
    roots = bisect_roots(scalar_equation(spec))
    rep = solve(spec, FAST)
    got = sorted(pt.u.value("v1") for pt in rep.solutions)
    assert len(got) == 2
    assert got[0] == pytest.approx(roots[0], abs=1e-6)
    assert got[1] == pytest.approx(roots[1], abs=1e-6)
    kinds = {pt.kind for pt in rep.solutions}
    assert kinds == {"Minimizer", "Saddle"}
    for pt in rep.solutions:
        assert pt.positive_on_S
        assert verify_positive(spec, pt.u).passed
        assert pt.residual_orig <= 1e-8


def test_solve_kkt_regime():
    # The tag runs the ball and mountain-pass phases, which find both roots.
    th = lambda_thresholds(instance_constants(cubic_star_spec()))
    for gamma in (1.01 * th.gamma0, 2.0 * th.gamma0, 8.0 * th.gamma0):
        for share in (0.1, 0.9):
            spec = cubic_star_spec(lam=share * th.lambda3(gamma))
            rep = solve(spec, FAST, gamma=gamma)
            assert rep.regime.has(RegimeTag.TWO_SOLUTIONS_KKT)
            assert not hasattr(rep, "kkt")
            assert "kkt" not in solve_report_document(spec, rep, gamma)
            roots = bisect_roots(scalar_equation(spec))
            assert len(roots) == 2
            assert [pt.kind for pt in rep.solutions] == ["Minimizer", "Saddle"]
            for pt, root in zip(rep.solutions, roots):
                assert pt.u.value("v1") == pytest.approx(root, rel=1e-8)


def test_gamma_at_most_gamma0_is_rejected():
    spec = cubic_star_spec(lam=0.005)
    c = instance_constants(spec)
    gamma0 = lambda_thresholds(c).gamma0
    for gamma in (2.0, gamma0):
        with pytest.raises(GammaTooSmall):
            classify_regime(c, spec.lam, gamma)
        with pytest.raises(GammaTooSmall):
            solve(spec, FAST, gamma=gamma)


def test_solve_sphere_estimate_recorded():
    spec = cubic_star_spec(lam=0.4)
    rep = solve(spec, FAST)
    th = lambda_thresholds(instance_constants(spec))
    assert rep.sphere_lower_bound == th.sphere_lower_bound(spec.lam)
    assert rep.sphere_lower_bound > 0.0


def _counting_descend(monkeypatch):
    """Record the constraint of every descent (one per start) that runs
    through ``descend_all``, the entry point of ``solve``."""
    calls = []
    descend_all = plap.solver.descend_all

    def counting(problem, starts, constraint=None, *args, **kwargs):
        calls.extend([constraint] * len(starts))
        return descend_all(problem, starts, constraint, *args, **kwargs)

    monkeypatch.setattr(plap.solver, "descend_all", counting)
    return calls


@pytest.mark.parametrize("restarts", [0, 3])
def test_solve_runs_no_sphere_descents(monkeypatch, restarts):
    # The ball regime descends only inside the ball: the barrier is closed
    # form.  On a convex ball the descent from the origin is the only one;
    # otherwise the spike, the origin and every random start run.
    calls = _counting_descend(monkeypatch)
    rep = solve(cubic_star_spec(lam=0.4), SolverOptions(restarts=restarts))
    assert rep.ball_convexity.certified
    assert len(rep.solutions) == 2
    assert len(calls) == 1
    assert isinstance(calls[0], Ball)

    calls.clear()
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    rep = solve(spec, SolverOptions(restarts=restarts))
    assert rep.regime.has(RegimeTag.EKELAND) and not rep.ball_convexity.certified
    assert len(calls) == 2 + restarts
    assert all(isinstance(c, Ball) for c in calls)


def test_solve_deterministic_given_seed():
    spec = cubic_star_spec(lam=0.4)
    rep1 = solve(spec, SolverOptions(restarts=3, rng_seed=5))
    rep2 = solve(spec, SolverOptions(restarts=3, rng_seed=5))
    assert len(rep1.solutions) == len(rep2.solutions)
    for a, b in zip(rep1.solutions, rep2.solutions):
        assert np.array_equal(a.u.values, b.u.values)
        assert a.value == b.value


def test_solve_small_ball_regime_only():
    # two interior vertices with very different source exponents: the top one
    # differs from p everywhere while the bottom stays under pbar+, so only
    # the small-ball existence statement applies.
    from plap import build_graph

    g = build_graph(["a", "b"], ["z"],
                    [("a", "b", 1.0), ("b", "z", 1.0), ("a", "z", 1.0)])
    p = ExponentField.constant(g, 4.0)
    q = Potential.constant(g, 1.0)
    f = PowerPlus(g, [1.0, 1.0], [3.0, 10.0], [0.5, 0.5])
    c = instance_constants(ProblemSpec(graph=g, p=p, q=q, f=f, lam=1.0))
    th = lambda_thresholds(c)
    spec = ProblemSpec(graph=g, p=p, q=q, f=f, lam=0.5 * th.lambda2)
    regime = solve(spec, FAST).regime
    assert regime.has(RegimeTag.EKELAND)
    assert not regime.has(RegimeTag.TWO_SOLUTIONS)
    rep = solve(spec, FAST)
    assert len(rep.solutions) >= 1
    pt = rep.solutions[0]
    assert pt.norm < instance_constants(spec).n_vertices ** -0.5
    assert pt.positive_on_S
    assert pt.residual_orig <= 1e-8


def test_gradient_unknown_vertex():
    from plap import p_gradient
    from plap.errors import UnknownVertex
    from plap.calculus import VertexFunction

    spec = constant_source_spec()
    u = VertexFunction(spec.graph, np.zeros(3))
    with pytest.raises(UnknownVertex):
        p_gradient(spec.graph, spec.p, u, "zz")


def one_formula_specs():
    """power_plus, arctan_power and a custom kind, each with a non-uniform p."""
    from plap import ArctanPower, CustomNonlinearity

    rng = np.random.default_rng(41)
    g = make_cycle_pendant_graph(rng, k=4)
    p = ExponentField(g, rng.uniform(2.0, 4.0, g.n_vertices))
    q = Potential(g, rng.uniform(0.5, 2.0, g.n_interior))
    kinds = [
        PowerPlus(g, rng.uniform(0.5, 2.0, 4), rng.uniform(2.0, 5.0, 4), 0.3),
        ArctanPower(g, m=rng.uniform(2.0, 4.0, 4), phi=0.7, psi=0.4),
        CustomNonlinearity(g, lambda x, t: 1.0 + t * t + 0.1 * len(x)),
    ]
    return [ProblemSpec(g, p, q, f, 0.2) for f in kinds]


def test_solver_energy_and_gradient_are_the_api_formulas_bit_for_bit():
    from plap import gradient_residual

    rng = np.random.default_rng(42)
    for spec in one_formula_specs():
        for _ in range(5):
            v = rng.uniform(-1.0, 2.0, spec.graph.n_interior)
            u = DirichletFunction.from_interior(spec.graph, v)
            J = spec._kernel.energy(v)
            assert np.float64(J).tobytes() == np.float64(energy_value(spec, u)).tobytes()
            grad = spec._kernel.gradient(v)
            assert grad.tobytes() == gradient_residual(spec, u).interior().tobytes()


def test_descend_constructions_do_not_grow_with_iterations(monkeypatch):
    from plap.calculus import DirichletFunction as DF

    counted = []
    check = DF.__post_init__

    def counting(self):
        counted.append(1)
        check(self)

    monkeypatch.setattr(DF, "__post_init__", counting)
    spec = one_formula_specs()[0]
    u0 = DirichletFunction.from_interior(spec.graph, np.full(spec.graph.n_interior, 3.0))
    per_run = []
    for budget in (3, 30):
        counted.clear()
        pt = descend(spec, u0, opts=SolverOptions(grad_tol=1e-300, max_iter=budget))
        assert pt.iterations == budget
        per_run.append(len(counted))
    assert per_run[0] == per_run[1] <= 2, per_run


def _resonant_path(rng, fraction):
    """A weighted path b0 - x0 ... x5 - b1 with p = 2 and f = t + 1 at lambda =
    fraction * mu1, where mu1 is the least eigenvalue of the Dirichlet Laplacian
    plus diag(q); near mu1 the energy is nearly flat around its minimizer."""
    labels = ["b0"] + [f"x{i}" for i in range(6)] + ["b1"]
    w = rng.uniform(0.5, 1.5, 7)
    q = rng.uniform(0.5, 2.0, 6)
    g = build_graph(labels[1:-1], ["b0", "b1"],
                    [(a, b, float(wk)) for a, b, wk in zip(labels, labels[1:], w)])
    op = np.diag(w[:-1] + w[1:] + q) - np.diag(w[1:-1], 1) - np.diag(w[1:-1], -1)
    mu1 = float(np.linalg.eigvalsh(op)[0])
    return ProblemSpec(g, ExponentField.constant(g, 2.0), Potential(g, q),
                       PowerPlus(g, phi=1.0, m=2.0, psi=1.0), fraction * mu1)


@pytest.mark.parametrize("fraction", [0.9, 0.95])
def test_descend_converges_near_resonance(fraction):
    # J changes by less than its rounding error long before the gradient
    # reaches grad_tol; the slope test must carry the descent the rest of the way.
    rng = np.random.default_rng(2024)
    stopped = []
    for draw in range(10):
        spec = _resonant_path(rng, fraction)
        n = spec.graph.n_interior
        starts = [np.zeros(n)] + [rng.uniform(-0.5, 1.5, n) for _ in range(16)]
        for k, v0 in enumerate(starts):
            pt = descend(spec, DirichletFunction.from_interior(spec.graph, v0))
            if not pt.converged:
                stopped.append((draw, k, pt.iterations, pt.residual_inf))
    assert not stopped, (len(stopped), stopped[:5])


def _direct_grid(side=8):
    """A side x side 4-neighbour grid inside a boundary ring with p = 3,
    f = t^1.5 + 1 and lambda = 1 (direct regime)."""
    rng = np.random.default_rng(5)

    def lab(i, j):
        return f"g{i}_{j}"

    idx = range(1, side + 1)
    interior = [lab(i, j) for i in idx for j in idx]
    boundary = ([lab(0, j) for j in idx] + [lab(side + 1, j) for j in idx]
                + [lab(i, 0) for i in idx] + [lab(i, side + 1) for i in idx])
    pairs = [(lab(i, j), lab(i + 1, j)) for i in range(side + 1) for j in idx]
    pairs += [(lab(i, j), lab(i, j + 1)) for i in idx for j in range(side + 1)]
    weights = rng.uniform(0.5, 1.5, len(pairs))
    g = build_graph(interior, boundary,
                    [(a, b, float(w)) for (a, b), w in zip(pairs, weights)])
    return ProblemSpec(g, ExponentField.constant(g, 3.0),
                       Potential(g, rng.uniform(0.5, 2.0, side * side)),
                       PowerPlus(g, phi=1.0, m=2.5, psi=1.0), 1.0)


def test_descend_evaluates_energy_about_once_per_iteration(monkeypatch):
    # Backtracking on rounding noise in J used to cost about 5 evaluations
    # per iteration on direct grids.
    spec = _direct_grid()
    calls = []
    energy = EvaluationKernel.energy

    def counting(kernel, v):
        calls.append(1)
        return energy(kernel, v)

    monkeypatch.setattr(EvaluationKernel, "energy", counting)
    pt = descend(spec, DirichletFunction.zeros(spec.graph))
    assert pt.converged
    assert len(calls) <= 1.5 * pt.iterations, (len(calls), pt.iterations)


@pytest.mark.parametrize("name, budget", [("triangle_pendant", 180),
                                          ("triangle_pendant_steep", 200)])
def test_solve_on_the_stiff_triangles_stays_within_its_energy_budget(monkeypatch, name, budget):
    # The ball descents with monotone acceptance spent 237 and 296 J calls,
    # rejecting Barzilai-Borwein steps that raise J above the current iterate.
    spec = parse_problem(fixture_path(f"{name}.json"))
    calls = []
    energy = EvaluationKernel.energy

    def counting(kernel, v):
        calls.append(1)
        return energy(kernel, v)

    monkeypatch.setattr(EvaluationKernel, "energy", counting)
    rep = solve(spec, SolverOptions(rng_seed=0))
    assert [pt.kind for pt in rep.solutions] == ["Minimizer"]
    assert len(calls) <= budget, len(calls)


def test_negative_restarts_rejected():
    with pytest.raises(DomainError, match="restarts"):
        SolverOptions(restarts=-3)
    assert SolverOptions(restarts=0).restarts == 0


def test_negative_seed_rejected():
    with pytest.raises(DomainError, match="rng_seed"):
        SolverOptions(rng_seed=-1)
    assert SolverOptions(rng_seed=0).rng_seed == 0


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tolerance_rejected(tol):
    with pytest.raises(DomainError, match="tolerances must be finite and positive"):
        SolverOptions(grad_tol=tol)


# -- spike point ----------------------------------------------------------------

def _spike(spec, t, i):
    v = np.zeros(spec.graph.n_interior)
    v[i] = t
    return v


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(problem_specs())
def test_spike_energies_are_the_energy_of_each_spike(spec):
    n = spec.graph.n_interior
    F0 = spec.f.primitive_vector(np.zeros(n))
    for t in (0.3, 1e-3):
        got = spec._kernel.spike_energies(t, F0)
        want = [energy_value(spec, DirichletFunction.from_interior(spec.graph, _spike(spec, t, i)))
                for i in range(n)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_spike_energies_keep_the_constant_of_a_custom_primitive():
    from plap import CustomNonlinearity

    g = make_triangle_pendant_graph()
    # F(x, 0) = 0.7 is not 0: every vertex off the spike still contributes it
    f = CustomNonlinearity(g, lambda x, t: 1.0 + t,
                           primitive_fn=lambda x, t: 0.7 + t + 0.5 * t * t)
    spec = ProblemSpec(g, ExponentField.constant(g, 3.0), Potential.constant(g, 1.0), f, 0.4)
    F0 = f.primitive_vector(np.zeros(3))
    got = spec._kernel.spike_energies(0.25, F0)
    want = [energy_value(spec, DirichletFunction.from_interior(g, _spike(spec, 0.25, i)))
            for i in range(3)]
    assert got == pytest.approx(want, rel=1e-13)


def _spike_by_scan(spec):
    # The per-vertex scan spike_point replaced: J at every single-vertex
    # spike, the first height whose best spike has J < 0.
    c = instance_constants(spec)
    radius = c.n_vertices ** -0.5
    t = min(0.5 * lambda_thresholds(c).t0(spec.lam), 0.9 * radius)
    n = spec.graph.n_interior
    while True:
        vals = [energy_value(spec, DirichletFunction.from_interior(spec.graph, _spike(spec, t, i)))
                for i in range(n)]
        i_best = int(np.argmin(vals))
        if vals[i_best] < 0.0:
            return _spike(spec, t, i_best)
        t *= 0.5


def test_spike_point_picks_the_vertex_and_height_of_the_per_vertex_scan():
    rng = np.random.default_rng(8)
    specs = [cubic_star_spec(lam=0.4), cubic_star_spec(lam=0.6)]
    for k in (3, 5, 8):
        g = make_cycle_pendant_graph(rng, k)
        base = ProblemSpec(g, ExponentField.constant(g, 2.0),
                           Potential(g, rng.uniform(0.5, 2.0, k)),
                           PowerPlus(g, 1.0, rng.uniform(3.0, 5.0, k), 0.1), 1.0)
        lam2 = lambda_thresholds(instance_constants(base)).lambda2
        specs.append(ProblemSpec(g, base.p, base.q, base.f, 0.5 * lam2))
    for spec in specs:
        assert np.array_equal(spike_point(spec).interior(), _spike_by_scan(spec))


# -- uniqueness certificate -------------------------------------------------------

@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(unique_solution_specs())
def test_certified_restarts_dedupe_to_the_reported_point(spec):
    opts = SolverOptions(restarts=3)
    rep = solve(spec, opts)
    assert rep.uniqueness.certified
    assert not (rep.regime.has(RegimeTag.EKELAND) or rep.regime.has(RegimeTag.TWO_SOLUTIONS))
    # the restarts solve would have run, drawn from the same stream
    rng = np.random.default_rng(opts.rng_seed)
    n = spec.graph.n_interior
    restarts = [descend(spec, DirichletFunction.from_interior(spec.graph,
                                                             rng.uniform(-0.5, 1.5, n)), None, opts)
                for _ in range(opts.restarts)]
    converged = [pt for pt in restarts if pt.converged]
    if rep.solutions:
        assert len(rep.solutions) == 1
        assert converged
        assert len(plap.solver._dedupe(rep.solutions + converged)) == 1
    else:
        # no descent from zero converged, so solve ran these same restarts
        assert not converged


def test_certified_solve_runs_one_descent(monkeypatch):
    calls = _counting_descend(monkeypatch)
    rng = np.random.default_rng(12)
    for _ in range(4):
        spec = random_coercive_spec(rng)
        calls.clear()
        rep = solve(spec, FAST)
        assert rep.uniqueness.certified
        assert calls == [None]
        alone = descend(spec, DirichletFunction.zeros(spec.graph), None, FAST)
        assert np.array_equal(rep.solutions[0].u.values, alone.u.values)


def _above_lambda2(g, p, q, f):
    # Past lambda2 no small-ball statement applies: solve runs free descents.
    if f.envelope is None:
        return 0.5
    return lambda_thresholds(instance_constants(ProblemSpec(g, p, q, f, 1.0))).lambda2 + 0.1


def _uncertified_case(name):
    from plap import ArctanPower, CustomNonlinearity

    g = make_triangle_pendant_graph()
    p = ExponentField.constant(g, 3.0)
    q = Potential.constant(g, 1.0)
    f = PowerPlus(g, 1.0, 2.5, 0.5)
    if name == "per-vertex p":
        p = ExponentField(g, [3.0, 3.5, 4.0, 3.0, 3.0, 3.0])
        reason = "p is not constant on S-bar"
    elif name == "m > p at one vertex":
        f = PowerPlus(g, 1.0, [2.5, 2.5, 4.0], 0.5)
        reason = "m(x3) = 4 > p = 3"
    elif name == "arctan_power":
        f = ArctanPower(g, m=2.0, phi=0.5, psi=0.5)
        reason = "nonlinearity kind arctan_power has no closed-form monotonicity test"
    else:
        f = CustomNonlinearity(g, lambda x, t: 1.0 + 0.5 * t)
        reason = "nonlinearity kind custom has no closed-form monotonicity test"
    return ProblemSpec(g, p, q, f, _above_lambda2(g, p, q, f)), reason


@pytest.mark.parametrize("name", ["per-vertex p", "m > p at one vertex", "arctan_power", "custom"])
def test_uncertified_solve_runs_every_restart(monkeypatch, name):
    spec, reason = _uncertified_case(name)
    calls = _counting_descend(monkeypatch)
    rep = solve(spec, SolverOptions(restarts=2))
    assert (rep.uniqueness.certified, rep.uniqueness.reason) == (False, reason)
    assert calls == [None] * 3


def test_certified_solve_falls_back_to_restarts_when_the_first_descent_stops(monkeypatch):
    spec = random_coercive_spec(np.random.default_rng(12))
    calls = _counting_descend(monkeypatch)
    rep = solve(spec, SolverOptions(restarts=2, max_iter=1))
    assert rep.uniqueness.certified
    assert calls == [None] * 3
    assert not rep.solutions


# -- ball convexity certificate ---------------------------------------------------

def _ball_search_by_hand(spec, opts):
    """The ball points of the full search: the descents from the origin, the
    spike and each restart, the restarts drawn from ``solve``'s stream, run
    in ``solve``'s batches: on a certified convex ball the origin alone,
    then the spike and the restarts; otherwise all of them at once."""
    radius = instance_constants(spec).n_vertices ** -0.5
    rng = np.random.default_rng(opts.rng_seed)
    n = spec.graph.n_interior
    restarts = [plap.solver._random_direction(rng, n) * radius * rng.uniform(0.05, 0.95)
                for _ in range(opts.restarts)]
    spike, ball = spike_point(spec).interior(), Ball(radius)
    if ball_convexity_certificate(spec, radius).certified:
        points = [descend(spec, DirichletFunction.zeros(spec.graph), ball, opts)]
        points += descend_all(spec, [spike] + restarts, ball, opts)
    else:
        points = descend_all(spec, [np.zeros(n), spike] + restarts, ball, opts)
    inside = [pt for pt in points if pt.converged and pt.grad_inf <= opts.grad_tol
              and pt.norm < radius * (1 - 1e-9)]
    return points, inside


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ball_convexity_specs())
def test_convex_ball_restarts_dedupe_to_the_reported_point(spec):
    assume(classify_regime(instance_constants(spec), spec.lam).has(RegimeTag.EKELAND))
    opts = SolverOptions(restarts=3)
    rep = solve(spec, opts)
    assert rep.ball_convexity.certified
    radius = instance_constants(spec).n_vertices ** -0.5
    ball = [pt for pt in rep.solutions if pt.norm < radius]
    assert len(ball) == 1
    _, inside = _ball_search_by_hand(spec, opts)
    assert len(inside) == 2 + opts.restarts
    assert len(plap.solver._dedupe(ball + inside)) == 1


@pytest.mark.parametrize("opts, minimizer", [
    # |grad J(0)|_inf = lambda psi = 0.04: the origin's descent stops at u = 0
    (SolverOptions(restarts=3, grad_tol=0.05), True),
    # the origin's descent does not converge
    (SolverOptions(restarts=3, max_iter=1), False),
], ids=["origin-stalls", "origin-unconverged"])
def test_convex_ball_falls_back_to_every_start(monkeypatch, opts, minimizer):
    spec = cubic_star_spec(lam=0.4)
    calls = _counting_descend(monkeypatch)
    rep = solve(spec, opts)
    assert rep.ball_convexity.certified
    assert len(calls) == 2 + opts.restarts
    points, inside = _ball_search_by_hand(spec, opts)
    found = [pt for pt in rep.solutions if pt.kind == "Minimizer"]
    if minimizer:
        assert points[0].value == 0.0 and points[0].iterations == 0
        best = min(inside, key=lambda pt: pt.value)
        assert len(found) == 1 and np.array_equal(found[0].u.values, best.u.values)
    else:
        assert not inside and not found
        pinned = min(points, key=lambda pt: pt.value)
        assert any(f"(norm {pinned.norm:.6g}, projected residual {pinned.residual_inf:.3g})"
                   in note for note in rep.notes)
