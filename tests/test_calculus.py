import numpy as np
import pytest

from plap import (
    DirichletFunction,
    ExponentField,
    VertexFunction,
    green_pairing,
    fixture_path,
    integrate,
    load_problem,
    norm,
    norm_and_parts,
    p_gradient,
    p_laplacian,
    signed_power,
)
from plap.errors import DomainError, InvariantError, UnknownVertex

from conftest import (dense_weights, make_path_graph, make_triangle_pendant_graph,
                      random_dirichlet, random_graph)


def test_signed_power_values():
    assert signed_power(2.0, 3.0) == 4.0
    assert signed_power(0.0, 2.5) == 0.0
    assert signed_power(-3.0, 2.0) == -3.0
    assert signed_power(-2.0, 4.0) == -8.0


def test_signed_power_domain():
    with pytest.raises(DomainError):
        signed_power(1.0, 1.5)


def test_gradient_spike_on_path():
    g = make_path_graph()
    p = ExponentField(g, {"v0": 2.0, "v1": 3.0, "v2": 2.0})
    u = VertexFunction.from_dict(g, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    vec = p_gradient(g, p, u, "v1")
    # vertex order: v1 (interior), v0, v2
    assert np.allclose(vec, [0.0, -1.0, -1.0])


def test_gradient_scales_with_sqrt_weight():
    g = make_path_graph(w=4.0)
    p = ExponentField(g, {"v0": 2.0, "v1": 3.0, "v2": 2.0})
    u = VertexFunction.from_dict(g, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    vec = p_gradient(g, p, u, "v1")
    assert np.allclose(vec, [0.0, -2.0, -2.0])


def test_gradient_constant_function_is_zero():
    rng = np.random.default_rng(1)
    g = random_graph(rng)
    p = ExponentField(g, rng.uniform(2, 5, g.n_vertices))
    u = VertexFunction(g, np.full(g.n_vertices, 0.7))
    for x in g.vertices:
        assert np.all(p_gradient(g, p, u, x) == 0.0)


def test_laplacian_spike_on_path():
    g = make_path_graph()
    p = ExponentField(g, {"v0": 2.0, "v1": 3.0, "v2": 2.0})
    u = VertexFunction.from_dict(g, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    assert p_laplacian(g, p, u, "v1") == -2.0


def test_laplacian_of_constant_vanishes():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng)
        p = ExponentField(g, rng.uniform(2, 6, g.n_vertices))
        u = VertexFunction(g, np.full(g.n_vertices, rng.uniform(-3, 3)))
        for x in g.vertices:
            assert p_laplacian(g, p, u, x) == 0.0


def test_laplacian_quadratic_case_matches_plain_form():
    # For p = 2 the operator is the ordinary weighted difference sum.
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng)
        p = ExponentField.constant(g, 2.0)
        u = VertexFunction(g, rng.uniform(-2, 2, g.n_vertices))
        W = dense_weights(g)
        for i, x in enumerate(g.vertices):
            plain = sum(
                W[i, j] * (u.values[j] - u.values[i])
                for j in range(g.n_vertices)
            )
            assert p_laplacian(g, p, u, x) == pytest.approx(plain, abs=1e-12)


def test_laplacian_unknown_vertex():
    g = make_path_graph()
    p = ExponentField.constant(g, 2.0)
    u = VertexFunction(g, np.zeros(3))
    with pytest.raises(UnknownVertex):
        p_laplacian(g, p, u, "zz")


def test_integrate():
    g = make_path_graph()
    assert integrate(g, VertexFunction(g, np.zeros(3))) == 0.0
    assert integrate(g, VertexFunction(g, np.array([2.0, 1.0, 3.0]))) == 6.0
    g6 = make_triangle_pendant_graph()
    assert integrate(g6, VertexFunction(g6, np.ones(6))) == 6.0


def test_green_pairing_quadratic_path():
    g = make_path_graph()
    p = ExponentField.constant(g, 2.0)
    u = DirichletFunction.from_dict(g, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    lhs, rhs = green_pairing(g, p, u, u)
    assert lhs == pytest.approx(4.0, abs=1e-14)
    assert rhs == pytest.approx(4.0, abs=1e-14)


def test_green_pairing_constant_u():
    rng = np.random.default_rng(4)
    g = random_graph(rng)
    p = ExponentField.constant(g, 3.0)
    u = VertexFunction(g, np.full(g.n_vertices, 1.3))
    v = VertexFunction(g, rng.uniform(-1, 1, g.n_vertices))
    lhs, rhs = green_pairing(g, p, u, v)
    assert lhs == 0.0
    assert rhs == 0.0


def test_green_pairing_uniform_exponent_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_graph(rng)
        p = ExponentField.constant(g, float(rng.uniform(2, 6)))
        u = VertexFunction(g, rng.uniform(-2, 2, g.n_vertices))
        v = VertexFunction(g, rng.uniform(-2, 2, g.n_vertices))
        lhs, rhs = green_pairing(g, p, u, v)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_green_pairing_requires_uniform_exponent():
    # With per-vertex exponents the two sides genuinely differ: the pairing
    # identity only symmetrizes when p is a single constant.
    from plap import build_graph

    g = build_graph(["a"], ["b"], [("a", "b", 1.0)])
    p = ExponentField(g, {"a": 3.0, "b": 2.0})
    u = VertexFunction.from_dict(g, {"a": 2.0, "b": 0.0})
    v = VertexFunction.from_dict(g, {"a": 1.0, "b": 0.0})
    lhs, rhs = green_pairing(g, p, u, v)
    assert lhs == pytest.approx(8.0)
    assert rhs == pytest.approx(6.0)


def test_norm_and_parts_spike():
    g = make_path_graph()
    u = DirichletFunction.from_dict(g, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    n, up, um = norm_and_parts(u)
    assert n == 1.0
    assert np.array_equal(up.values, u.values)
    assert np.all(um.values == 0.0)


def test_norm_does_not_overflow():
    # The norm 1e200 is a double, though the sum of squares behind it is not.
    g = load_problem(fixture_path("cubic_path.json")).spec.graph
    assert norm(DirichletFunction.from_interior(g, [1e200])) == 1e200


def test_norm_and_parts_mixed_signs():
    from plap import build_graph

    g = build_graph(["a", "b"], ["z"], [("a", "b", 1.0), ("b", "z", 1.0)])
    u = DirichletFunction.from_dict(g, {"a": 1.0, "b": -2.0, "z": 0.0})
    n, up, um = norm_and_parts(u)
    assert n == pytest.approx(np.sqrt(5.0))
    assert up.value("a") == 1.0 and up.value("b") == 0.0
    assert um.value("a") == 0.0 and um.value("b") == 2.0


def test_splitting_identities_exact():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = random_graph(rng)
        u = random_dirichlet(rng, g, -3, 3)
        _, up, um = norm_and_parts(u)
        assert np.array_equal(u.values, up.values - um.values)
        assert np.array_equal(np.abs(u.values), up.values + um.values)
        assert np.all(up.values * um.values == 0.0)
        assert np.all(np.abs(up.values) <= np.abs(u.values))


def test_pairwise_sign_inequalities():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_graph(rng)
        u = random_dirichlet(rng, g, -3, 3)
        _, up, um = norm_and_parts(u)
        du = u.values[None, :] - u.values[:, None]
        dup = up.values[None, :] - up.values[:, None]
        dum = um.values[None, :] - um.values[:, None]
        assert np.all(du * dum <= 0.0)
        assert np.all(dup * dum <= 0.0)
        assert np.all(np.abs(dum) <= np.abs(du))


def test_dirichlet_function_rejects_nonzero_boundary():
    g = make_path_graph()
    with pytest.raises(InvariantError):
        DirichletFunction.from_dict(g, {"v0": 0.1, "v1": 1.0, "v2": 0.0})
