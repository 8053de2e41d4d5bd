"""The edge kernel against the per-vertex formulas it replaced.

Each reference below is a plain loop over vertices and neighbours with scalar
``math`` arithmetic, the way the operator and the energy are written in the
paper.  It returns the individual terms of its sum, so the vectorized result
is held to 1e-13 relative to the sum of their absolute values.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from plap import (
    ExponentField,
    ProblemSpec,
    VertexFunction,
    check_inequality,
    green_pairing,
    p_laplacian,
    residual_original,
    signed_power,
)
from plap.energy import EvaluationKernel

from conftest import dense_weights, direct_grid, problem_specs

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


def reference_primitive(f, i, t):
    """F(x_i, t) for t >= 0.  ``arctan_power`` has no closed form, so there the
    reference reads the library's quadrature at the one vertex: the tests
    below check how the kernel assembles J, not the quadrature."""
    if f.kind == "power_plus":
        m, phi, psi = float(f.m[i]), float(f.phi[i]), float(f.psi[i])
        return phi / m * t ** m + psi * t
    return float(f._primitive(i, np.array(t)))


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


@st.composite
def kernel_cases(draw):
    """A problem with per-vertex or uniform p (the kernel keeps a uniform p as
    one float) and the stack of v (any sign) and u (>= 0 inside), both with
    boundary values drawn in [-2, 2]."""
    spec, u, v = draw(problems())
    if draw(st.booleans()):
        g = spec.graph
        p = ExponentField.constant(g, float(spec.p.values[0]))
        spec = ProblemSpec(g, p, spec.q, spec.f, spec.lam)
    return spec, np.stack([v.values, u.values])


def energy_terms(spec, uv):
    """The Dirichlet, potential and source terms of J, each as its list of
    terms: 1/2 sum over every x and y of |u(y)-u(x)|^p(x) w(x,y) / p(x),
    sum over the interior of q |u|^p / p, and lambda sum of F(x, u(x)), with
    F(x, t) = F(x, 0) + f(x, 0) t below zero."""
    g, p, W = spec.graph, spec.p.values, dense_weights(spec.graph)
    dirichlet = [abs(float(uv[y] - uv[x])) ** float(p[x]) * float(W[x, y]) / (2.0 * float(p[x]))
                 for x in range(g.n_vertices) for y in range(g.n_vertices) if W[x, y] > 0.0]
    potential = [float(spec.q.values[i]) * abs(float(uv[i])) ** float(p[i]) / float(p[i])
                 for i in range(g.n_interior)]
    source = []
    for i in range(g.n_interior):
        t = float(uv[i])
        source.append(spec.lam * reference_primitive(spec.f, i, max(t, 0.0)))
        if t < 0.0:
            source.append(spec.lam * reference_rate(spec.f, i, 0.0) * t)
    return dirichlet, potential, source


def gradient_terms(spec, uv, i):
    """d J / d u(x_i): 1/2 sum over y of [sp(u(x)-u(y), p(x)) + sp(u(x)-u(y),
    p(y))] w(x,y), plus q sp(u(x), p(x)) - lambda f(x, u_plus(x))."""
    p, W = spec.p.values, dense_weights(spec.graph)
    ui = float(uv[i])
    terms = [0.5 * signed_power(ui - float(uv[j]), float(pe)) * float(W[i, j])
             for j in range(len(uv)) if W[i, j] > 0.0 for pe in (p[i], p[j])]
    return terms + [float(spec.q.values[i]) * signed_power(ui, float(p[i])),
                    -spec.lam * reference_rate(spec.f, i, max(ui, 0.0))]


@SETTINGS
@given(kernel_cases())
def test_energy_terms_match_reference_loops(case):
    spec, stack = case
    kernel = spec._kernel
    for rows in (stack[0], stack[1], stack):
        got = np.array(kernel.terms(rows), dtype=float).reshape(3, -1).T
        for uv, terms in zip(np.atleast_2d(rows), got):
            for value, ref in zip(terms, energy_terms(spec, uv)):
                assert_close(value, ref)


@SETTINGS
@given(kernel_cases())
def test_gradient_matches_reference_loop(case):
    spec, stack = case
    kernel = spec._kernel
    for rows in (stack[0], stack[1], stack):
        got = np.atleast_2d(kernel.gradient_at(rows))
        for uv, grad in zip(np.atleast_2d(rows), got):
            for i in range(spec.graph.n_interior):
                assert_close(grad[i], gradient_terms(spec, uv, i))


def ordered_pairs(g):
    """(rows, cols, w): both directions of each edge of ``g.edges``, sorted by
    (row, col), each with the edge's weight."""
    ei, ej, w = (a.tolist() for a in g.edges)
    pairs = sorted([*zip(ei, ej, w), *zip(ej, ei, w)])
    return tuple(np.array(a) for a in zip(*pairs))


def test_uniform_exponent_kernel_holds_one_per_edge_array():
    spec = direct_grid(8, 0, 0)
    kernel = EvaluationKernel(spec)
    ei, ej, w = spec.graph.edges
    E = ei.size
    # one p: a float for every edge and for the interior, p - 1 a 0-d array
    assert type(kernel.p) is float and type(kernel.p_int) is float
    assert kernel.pm1.shape == kernel.pm1_int.shape == ()
    assert (kernel.p, kernel.pm1, kernel.p_int, kernel.pm1_int) == (3.0, 2.0, 3.0, 2.0)
    arrays = {name: a for name, a in vars(kernel).items() if isinstance(a, np.ndarray)}
    assert [name for name, a in arrays.items() if a.size == E] == ["ei", "ej", "we"]
    assert [name for name, a in arrays.items() if a.size == E and a.dtype.kind == "f"] == ["we"]
    assert not any(a.size == 2 * E for a in arrays.values())
    # each edge once, as the graph holds it
    for got, want in zip((kernel.ei, kernel.ej, kernel.we), (ei, ej, w)):
        assert got.tobytes() == want.tobytes()

    varied = spec.p.values.copy()
    varied[0] = 4.0
    kernel = EvaluationKernel(ProblemSpec(spec.graph, ExponentField(spec.graph, varied),
                                          spec.q, spec.f, spec.lam))
    # a per-vertex p: both directions of each edge, sorted by (row, col), at
    # half its weight and with its row's exponent
    rows, cols, wp = ordered_pairs(spec.graph)
    assert kernel.ei.tobytes() == rows.tobytes() and kernel.ej.tobytes() == cols.tobytes()
    assert (kernel.we == 0.5 * wp).all() and (kernel.p == varied[rows]).all()
    assert (kernel.pm1 == kernel.p - 1.0).all() and kernel.p_int.shape == (spec.graph.n_interior,)
    # no reverse index: the only integer arrays are the edge ends
    assert [name for name, a in vars(kernel).items()
            if isinstance(a, np.ndarray) and a.dtype.kind in "iu"] == ["ei", "ej"]


def test_kernels_scatter_with_writable_indices_of_read_only_graph_arrays():
    # np.bincount copies a read-only index array on every call, so each
    # kernel owns writable edge ends; the graph's arrays stay read-only.
    spec = direct_grid(8, 0, 0)
    g = spec.graph
    varied = spec.p.values.copy()
    varied[0] = 4.0
    per_vertex = ProblemSpec(g, ExponentField(g, varied), spec.q, spec.f, spec.lam)
    for kernel in (EvaluationKernel(spec), EvaluationKernel(per_vertex)):
        assert kernel.ei.flags.writeable and kernel.ej.flags.writeable
        assert not any(np.shares_memory(a, b) for a in (kernel.ei, kernel.ej) for b in g.edges)
    assert EvaluationKernel(spec).we is g.edges[2]  # the weights are read, not copied
    assert not any(a.flags.writeable for a in g.edges)
    # the per-vertex kernel builds its pairs itself: the graph caches none
    assert set(vars(g)) <= {"interior", "boundary", "edges", "index"}


def test_one_exponent_residual_is_the_gradient_and_pairs_agree_with_edges():
    spec = direct_grid(8, 0, 0)
    g, fast = spec.graph, spec._kernel
    n = g.n_interior
    rng = np.random.default_rng(3)
    # With one p the original operator is grad J wherever u >= 0: the same
    # fluxes, summed in the same order, bit for bit (nonzero boundary too).
    uv = rng.uniform(0.0, 1.5, g.n_vertices)
    assert uv[n:].any()
    gradient = float(np.abs(fast.gradient_at(uv)).max())
    assert residual_original(spec, VertexFunction(g, uv)) == gradient

    # The per-vertex layout (every pair at half weight) at this one p gives
    # the edge layout's values; the sums run in another order.
    rows, cols, w = ordered_pairs(g)
    slow = EvaluationKernel(spec)
    slow.ei, slow.ej, slow.we = rows, cols, 0.5 * w
    slow.p, slow.pm1 = np.full(rows.size, 3.0), np.full(rows.size, 2.0)
    stack, x = rng.uniform(-0.5, 1.5, (3, n)), rng.uniform(-1.0, 1.0, n)
    F0 = spec.f.primitive_vector(np.zeros(n))
    u = np.abs(stack[1])

    def results(k):
        return [*k.energy_gradient(stack[0]), *k.energy_gradient(stack), *k.terms(k.full(u)),
                k.hessian(u)(x), k.spike_energies(0.3, F0)]

    for a, b in zip(results(fast), results(slow)):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)
