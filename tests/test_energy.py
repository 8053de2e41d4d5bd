import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import (
    CustomNonlinearity,
    DirichletFunction,
    ExponentField,
    Potential,
    PowerPlus,
    ProblemSpec,
    directional_slope,
    energy,
    energy_value,
    eval_f,
    gradient_residual,
    residual_original,
)
from plap.energy import gradient_values
from plap.errors import NegativeArgument

from conftest import (
    constant_source_spec,
    cubic_star_spec,
    problem_specs,
    random_dirichlet,
    random_graph,
    random_power_spec,
)


def test_energy_zero_function():
    spec = constant_source_spec()
    eb = energy(spec, DirichletFunction.zeros(spec.graph))
    assert eb.total == 0.0
    assert eb.dirichlet_term == 0.0 and eb.potential_term == 0.0 and eb.source_term == 0.0


def test_energy_breakdown_spike():
    spec = constant_source_spec()
    u = DirichletFunction.from_interior(spec.graph, [1.0])
    eb = energy(spec, u)
    assert eb.dirichlet_term == pytest.approx(1.0, abs=1e-15)
    assert eb.potential_term == pytest.approx(0.5, abs=1e-15)
    assert eb.source_term == pytest.approx(1.0, abs=1e-15)
    assert eb.total == pytest.approx(0.5, abs=1e-15)
    assert eb.total == eb.dirichlet_term + eb.potential_term - eb.source_term


def test_gradient_component_spike():
    spec = constant_source_spec()
    u = DirichletFunction.from_interior(spec.graph, [1.0])
    g = gradient_residual(spec, u)
    assert g.value("v1") == pytest.approx(2.0, abs=1e-14)
    assert g.value("v0") == 0.0 and g.value("v2") == 0.0


def finite_difference(spec, u, i, h=1e-6):
    vp = u.interior().copy()
    vm = u.interior().copy()
    vp[i] += h
    vm[i] -= h
    up = DirichletFunction.from_interior(spec.graph, vp)
    um = DirichletFunction.from_interior(spec.graph, vm)
    return (energy_value(spec, up) - energy_value(spec, um)) / (2 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(40):
        spec = random_power_spec(rng, p_range=(2.0, 6.0))
        u = random_dirichlet(rng, spec.graph, -2.0, 2.0)
        g = gradient_residual(spec, u).interior()
        for i in range(spec.graph.n_interior):
            fd = finite_difference(spec, u, i)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(fd), abs(g[i]))


def test_energy_without_source_is_nonnegative():
    rng = np.random.default_rng(22)
    for _ in range(30):
        spec = random_power_spec(rng)
        u = random_dirichlet(rng, spec.graph, -3.0, 3.0)
        eb = energy(spec, u)
        assert eb.dirichlet_term >= 0.0
        assert eb.potential_term >= 0.0


def test_directional_slope_basis_directions():
    rng = np.random.default_rng(23)
    spec = random_power_spec(rng)
    u = random_dirichlet(rng, spec.graph)
    g = gradient_residual(spec, u)
    for i in range(spec.graph.n_interior):
        e = np.zeros(spec.graph.n_interior)
        e[i] = 1.0
        v = DirichletFunction.from_interior(spec.graph, e)
        assert directional_slope(spec, u, v) == g.interior()[i]


def test_directional_slope_at_zero():
    rng = np.random.default_rng(24)
    spec = random_power_spec(rng)
    g = spec.graph
    v = random_dirichlet(rng, g)
    zero = DirichletFunction.zeros(g)
    expected = -spec.lam * float(
        np.dot(spec.f.rate_vector(np.zeros(g.n_interior)), v.interior())
    )
    assert directional_slope(spec, zero, v) == pytest.approx(expected, rel=1e-12)


def test_slope_along_negative_part_bound():
    # <grad J(u), u_minus> <= -sum q |u_minus|^p, for any u and any exponents.
    rng = np.random.default_rng(25)
    for _ in range(60):
        spec = random_power_spec(rng)
        g = spec.graph
        u = random_dirichlet(rng, g, -3.0, 3.0)
        um = DirichletFunction(g, np.maximum(-u.values, 0.0))
        lhs = directional_slope(spec, u, um)
        bound = -float(np.sum(
            spec.q.values * np.abs(um.interior()) ** spec.p.interior()
        ))
        assert lhs <= bound + 1e-10 * (1 + abs(bound))


def test_residual_original_on_positive_state():
    spec = constant_source_spec()
    u = DirichletFunction.from_interior(spec.graph, [1.0 / 3.0])
    assert residual_original(spec, u) <= 1e-14
    u2 = DirichletFunction.from_interior(spec.graph, [0.5])
    g = gradient_residual(spec, u2)
    assert residual_original(spec, u2) == pytest.approx(
        float(np.max(np.abs(g.values))), rel=1e-12)


def test_residual_original_rejects_negative_state():
    spec = constant_source_spec()
    u = DirichletFunction.from_interior(spec.graph, [-0.5])
    with pytest.raises(NegativeArgument):
        residual_original(spec, u)


def spike_energy_bound(spec, t):
    """Closed-form majorant of the spike energy, valid for t in (0, 1] on
    instances whose exponent minimum over all vertices is attained inside."""
    from plap import instance_constants

    c = instance_constants(spec)
    lead = (1.0 / (2.0 * c.p_minus)) * c.max_weight * (2 * c.n_interior + 2 * c.n_boundary - 2)
    return (lead + c.q_plus / c.p_minus) * t ** c.p_minus \
        - spec.lam * (c.phi1_min / c.m1_plus + c.psi1_min) * t ** c.m1_plus


def test_spike_energy_bound_holds():
    rng = np.random.default_rng(26)
    for _ in range(60):
        g = random_graph(rng, 9)
        n, ni = g.n_vertices, g.n_interior
        p_int = rng.uniform(2.0, 5.0, ni)
        p_all = np.concatenate([p_int, rng.uniform(p_int.min(), p_int.min() + 3.0, n - ni)])
        spec = ProblemSpec(
            graph=g,
            p=ExponentField(g, p_all),
            q=Potential(g, rng.uniform(0.5, 2.0, ni)),
            f=PowerPlus(g, rng.uniform(0.1, 2.0, ni), rng.uniform(2.0, 8.0, ni),
                        rng.uniform(0.1, 2.0, ni)),
            lam=float(rng.uniform(0.1, 2.0)),
        )
        t = float(rng.uniform(0.01, 1.0))
        i = int(rng.integers(0, ni))
        vals = np.zeros(ni)
        vals[i] = t
        J = energy_value(spec, DirichletFunction.from_interior(g, vals))
        bound = spike_energy_bound(spec, t)
        assert J <= bound + 1e-10 * (1 + abs(bound))


def test_cubic_spike_energy_value():
    # J(t e_v1) = 1.5 t^2 - 0.1 t^4 - 0.04 t on the two-solution benchmark
    spec = cubic_star_spec()
    for t in (0.013, 0.5, 1.0, 2.7):
        u = DirichletFunction.from_interior(spec.graph, [t])
        expected = 1.5 * t ** 2 - 0.1 * t ** 4 - 0.04 * t
        assert energy_value(spec, u) == pytest.approx(expected, rel=1e-13)


def test_source_term_extends_linearly_below_zero():
    # For u < 0 the source integrand is frozen at f(., 0), keeping J smooth;
    # the gradient there is -lam * f(., 0).
    spec = constant_source_spec()
    u = DirichletFunction.from_interior(spec.graph, [-1.0])
    eb = energy(spec, u)
    assert eb.source_term == pytest.approx(-1.0, rel=1e-14)
    g = gradient_residual(spec, u)
    fd = finite_difference(spec, u, 0)
    assert g.value("v1") == pytest.approx(fd, rel=1e-7)


@st.composite
def hessian_problems(draw):
    """A generated problem (see ``problem_specs``) whose f is power_plus,
    arctan_power or a custom wrapper of either, a point u and a direction x.

    |u| on the interior and |u(r) - u(c)| on every pair stay at least 0.05,
    so J is smooth within the finite-difference step at u."""
    spec = draw(problem_specs())
    g = spec.graph
    if draw(st.booleans()):
        inner = spec.f
        custom = CustomNonlinearity(g, lambda x, t: eval_f(inner, x, t))
        spec = ProblemSpec(g, spec.p, spec.q, custom, spec.lam)
    n = g.n_interior
    magnitude = 0.2 + 0.1 * np.array(draw(st.permutations(range(n))), dtype=float)
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    u = draw(st.floats(0.5, 2.0)) * sign * magnitude
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return spec, u, x


@given(hessian_problems())
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_hessian_product_matches_central_differences_of_the_gradient(problem):
    spec, u, x = problem
    g = spec.graph

    def grad(v):
        return gradient_values(spec, DirichletFunction.from_interior(g, v).values)[: g.n_interior]

    h = 1e-5
    fd = (grad(u + h * x) - grad(u - h * x)) / (2.0 * h)
    hx = spec._kernel.hessian(u)(x)
    assert np.max(np.abs(hx - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(hx))))


def test_hessian_for_p_two_is_the_weighted_laplacian_plus_a_diagonal():
    # For p = 2 and power_plus, H = L_w + diag(q - lambda phi (m-1) u^(m-2)).
    rng = np.random.default_rng(27)
    for _ in range(20):
        g = random_graph(rng, 10)
        n = g.n_interior
        q, phi, m = rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(2.0, 6.0, n)
        spec = ProblemSpec(g, ExponentField.constant(g, 2.0), Potential(g, q),
                           PowerPlus(g, phi=phi, m=m, psi=rng.uniform(0.1, 2.0, n)),
                           float(rng.uniform(0.01, 2.0)))
        u = rng.uniform(0.05, 2.0, n)
        W = g.weights[:n]
        expected = (np.diag(W.sum(axis=1)) - W[:, :n]
                    + np.diag(q - spec.lam * phi * (m - 1.0) * u ** (m - 2.0)))
        product = spec._kernel.hessian(u)
        dense = np.column_stack([product(e) for e in np.eye(n)])
        assert np.max(np.abs(dense - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))
