"""The edge kernel against the per-vertex formulas it replaced.

Each reference below is a plain loop over vertices and neighbours with scalar
``math`` arithmetic, the way the operator is written in the paper.  It returns
the individual terms of its sum, so the vectorized result is held to 1e-13
relative to the sum of their absolute values.
"""

import math

from hypothesis import given, settings, strategies as st

from plap import (
    VertexFunction,
    check_inequality,
    green_pairing,
    p_laplacian,
    residual_original,
    signed_power,
)

from conftest import dense_weights, problem_specs

TOL = 1e-13
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def problems(draw):
    """A generated problem (see ``problem_specs``) and two functions u, v."""
    spec = draw(problem_specs())
    g = spec.graph
    n, n_int = g.n_vertices, g.n_interior

    def values(lo, hi, size):
        return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

    # u >= 0 inside (the residual needs it), any sign on the boundary
    u = VertexFunction(g, values(0.0, 2.0, n_int) + values(-2.0, 2.0, n - n_int))
    v = VertexFunction(g, values(-2.0, 2.0, n))
    return spec, u, v


def reference_rate(f, i, t):
    m, phi, psi = float(f.m[i]), float(f.phi[i]), float(f.psi[i])
    if f.kind == "power_plus":
        return phi * t ** (m - 1.0) + psi
    return ((t + 1.0) ** (1.0 - math.exp(-t * t) + m) * (2.0 / math.pi * math.atan(t) + phi)
            + abs(math.sin(t)) + psi + 1.0)


def laplacian_terms(spec, u, i):
    """lap_p u(x_i) = sum over y of |u(y)-u(x)|^(p(x)-2) (u(y)-u(x)) w(x,y)."""
    uv, p, W = u.values, spec.p.values, dense_weights(spec.graph)
    return [signed_power(float(uv[j] - uv[i]), float(p[i])) * float(W[i, j])
            for j in range(len(uv)) if W[i, j] > 0.0]


def residual_terms(spec, u, i):
    ui = float(u.values[i])
    return ([-t for t in laplacian_terms(spec, u, i)]
            + [float(spec.q.values[i]) * signed_power(ui, float(spec.p.values[i])),
               -spec.lam * reference_rate(spec.f, i, ui)])


def assert_close(got, terms):
    ref = math.fsum(terms)
    assert abs(got - ref) <= TOL * math.fsum(abs(t) for t in terms), (got, ref)


@SETTINGS
@given(problems())
def test_residual_original_matches_reference_loop(case):
    spec, u, _ = case
    per_vertex = [residual_terms(spec, u, i) for i in range(spec.graph.n_interior)]
    ref = max(abs(math.fsum(terms)) for terms in per_vertex)
    scale = max(math.fsum(abs(t) for t in terms) for terms in per_vertex)
    assert abs(residual_original(spec, u) - ref) <= TOL * scale


@SETTINGS
@given(problems())
def test_p_laplacian_matches_reference_loop_at_every_vertex(case):
    spec, u, _ = case
    for i, x in enumerate(spec.graph.vertices):
        assert_close(p_laplacian(spec.graph, spec.p, u, x), laplacian_terms(spec, u, i))


@SETTINGS
@given(problems())
def test_green_pairing_matches_reference_loops(case):
    spec, u, v = case
    g, uv, vv, p = spec.graph, u.values, v.values, spec.p.values
    W = dense_weights(g)
    lhs_terms = [-2.0 * t * float(vv[i])
                 for i in range(g.n_vertices) for t in laplacian_terms(spec, u, i)]
    rhs_terms = [signed_power(float(uv[c] - uv[r]), float(p[r])) * float(vv[c] - vv[r])
                 * float(W[r, c])
                 for r in range(g.n_vertices) for c in range(g.n_vertices)
                 if W[r, c] > 0.0]
    lhs, rhs = green_pairing(g, spec.p, u, v)
    assert_close(lhs, lhs_terms)
    assert_close(rhs, rhs_terms)


@SETTINGS
@given(problems())
def test_inequality_a5_sum_matches_reference_loop(case):
    spec, u, _ = case
    g, uv, p, W = spec.graph, u.values, spec.p.values, dense_weights(spec.graph)
    terms = [abs(float(uv[x] - uv[y])) ** float(p[x]) * float(W[x, y])
             for x in range(g.n_vertices) for y in range(g.n_vertices)]
    lhs, _, _ = check_inequality("a5", spec, u)
    assert_close(lhs, terms)
