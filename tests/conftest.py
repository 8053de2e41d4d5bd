import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import plap
from plap import (
    ArctanPower,
    DirichletFunction,
    ExponentField,
    Potential,
    PowerPlus,
    ProblemSpec,
    build_graph,
    instance_constants,
    lambda_thresholds,
    signed_power,
)

# Tests that run `python -m plap` in a child process need the package this
# process imported, whether PYTHONPATH or pytest's `pythonpath` supplied it.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(plap.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)
# They also follow the suite's warning policy (`filterwarnings` in pyproject.toml).
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"


def dense_weights(g):
    """The (n, n) weight matrix of g in vertex order, 0 for no edge, as the
    reference loops index it (the library keeps only the ordered pairs)."""
    rows, cols, w = g.ordered_pairs
    dense = np.zeros((g.n_vertices, g.n_vertices))
    dense[rows, cols] = w
    return dense


def make_path_graph(w=1.0):
    """v0 -- v1 -- v2 with v1 interior."""
    return build_graph(["v1"], ["v0", "v2"], [("v0", "v1", w), ("v1", "v2", w)])


def make_triangle_pendant_graph(a=1.0):
    """Interior triangle x1 x2 x3, one pendant boundary vertex on each."""
    edges = [
        ("x1", "x2", a), ("x2", "x3", a), ("x3", "x1", a),
        ("x1", "x4", a), ("x2", "x5", a), ("x3", "x6", a),
    ]
    return build_graph(["x1", "x2", "x3"], ["x4", "x5", "x6"], edges)


def make_cycle_pendant_graph(rng, k=3):
    """Interior k-cycle with one pendant boundary vertex per interior vertex.

    Interior-boundary edges form a perfect matching.
    """
    interior = [f"c{i}" for i in range(k)]
    boundary = [f"d{i}" for i in range(k)]
    edges = []
    for i in range(k):
        edges.append((interior[i], interior[(i + 1) % k], float(rng.uniform(0.2, 3.0))))
        edges.append((interior[i], boundary[i], float(rng.uniform(0.2, 3.0))))
    return build_graph(interior, boundary, edges)


def random_graph(rng, n_max=12):
    """Random connected graph, 2..n_max vertices, both parts nonempty."""
    return build_graph(*random_graph_input(rng, n_max))


def random_graph_input(rng, n_max=12):
    """(interior, boundary, edges) of ``random_graph``: a random spanning tree
    plus up to n extra edges, each edge listed once as (lower, higher) label."""
    n = int(rng.integers(2, n_max + 1))
    n_int = int(rng.integers(1, n))
    labels = [f"w{i}" for i in range(n)]
    edges = {}
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a, b = order[k], order[int(rng.integers(0, k))]
        key = (min(a, b), max(a, b))
        edges[key] = float(rng.uniform(0.2, 3.0))
    for _ in range(n):
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), float(rng.uniform(0.2, 3.0)))
    return (labels[:n_int], labels[n_int:],
            [(labels[a], labels[b], w) for (a, b), w in edges.items()])


def shuffled_path_input(n, seed=0):
    """(interior, boundary, edges) of the path v0 -- v1 -- ... -- v(n-1) with
    its two ends as the boundary: the interior labels and the edges come in
    shuffled orders, so vertex indices do not follow the path."""
    rng = np.random.default_rng(seed)
    labels = [f"v{k}" for k in range(n)]
    interior = labels[1:-1]
    rng.shuffle(interior)
    weights = rng.uniform(0.5, 1.5, n - 1).tolist()
    edges = [(labels[k], labels[k + 1], weights[k]) for k in rng.permutation(n - 1).tolist()]
    return interior, [labels[0], labels[-1]], edges


@st.composite
def connected_graphs(draw):
    """A connected graph with 2 to 10 vertices, both parts nonempty, weights
    in [0.2, 3]."""
    n = draw(st.integers(2, 10))
    n_int = draw(st.integers(1, n - 1))
    label = [f"w{k}" for k in draw(st.permutations(range(n)))]
    weight = st.floats(0.2, 3.0)
    edges = {}
    for k in range(1, n):  # a random tree keeps the graph connected
        edges[(draw(st.integers(0, k - 1)), k)] = draw(weight)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), draw(weight))
    return build_graph(label[:n_int], label[n_int:],
                       [(label[a], label[b], w) for (a, b), w in edges.items()])


def _float_lists(draw, lo, hi, size):
    return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))


@st.composite
def problem_specs(draw):
    """A connected graph (2 to 10 vertices) with per-vertex p in [2, 6], q in
    [0.1, 3], lambda in [0.01, 2], and power_plus or arctan_power with m in [2, 6]."""
    g = draw(connected_graphs())
    n, n_int = g.n_vertices, g.n_interior

    def values(lo, hi, size):
        return _float_lists(draw, lo, hi, size)

    p = ExponentField(g, values(2.0, 6.0, n))
    q = Potential(g, values(0.1, 3.0, n_int))
    m, phi, psi = values(2.0, 6.0, n_int), values(0.1, 2.0, n_int), values(0.1, 2.0, n_int)
    if draw(st.booleans()):
        f = PowerPlus(g, phi=phi, m=m, psi=psi)
    else:
        f = ArctanPower(g, m=m, phi=phi, psi=psi)
    return ProblemSpec(g, p, q, f, draw(st.floats(0.01, 2.0)))


@st.composite
def unique_solution_specs(draw):
    """Instances the uniqueness certificate accepts: a connected graph, one
    constant p in [2, 6], q in [0.1, 3], power_plus with m in [2, p] at every
    vertex, and lambda in lambda2 + [0.05, 2], so that no small-ball regime
    applies and ``solve`` runs its unconstrained branch."""
    g = draw(connected_graphs())
    n_int = g.n_interior
    pv = draw(st.floats(2.0, 6.0))
    p = ExponentField.constant(g, pv)
    q = Potential(g, _float_lists(draw, 0.1, 3.0, n_int))
    f = PowerPlus(g, phi=_float_lists(draw, 0.1, 2.0, n_int),
                  m=_float_lists(draw, 2.0, pv, n_int), psi=_float_lists(draw, 0.1, 2.0, n_int))
    lambda2 = lambda_thresholds(instance_constants(ProblemSpec(g, p, q, f, 1.0))).lambda2
    return ProblemSpec(g, p, q, f, lambda2 + draw(st.floats(0.05, 2.0)))


@st.composite
def ball_convexity_specs(draw):
    """Small-ball instances in the reach of the ball convexity certificate: a
    connected graph, p = 2, q in [0.1, 3], power_plus with m in [2, 12] and
    phi, psi in [0.1, 2], and lambda in [0.05, 0.99] lambda2."""
    g = draw(connected_graphs())
    n_int = g.n_interior
    p = ExponentField.constant(g, 2.0)
    q = Potential(g, _float_lists(draw, 0.1, 3.0, n_int))
    f = PowerPlus(g, phi=_float_lists(draw, 0.1, 2.0, n_int),
                  m=_float_lists(draw, 2.0, 12.0, n_int), psi=_float_lists(draw, 0.1, 2.0, n_int))
    lambda2 = lambda_thresholds(instance_constants(ProblemSpec(g, p, q, f, 1.0))).lambda2
    return ProblemSpec(g, p, q, f, draw(st.floats(0.05, 0.99)) * lambda2)


def descend(spec, u0, constraint=None, opts=None):
    """The descent from the one start u0: ``descend_all`` on a one-vector batch,
    looked up at call time so that tests may wrap it."""
    return plap.solver.descend_all(spec, [u0.interior()], constraint, opts)[0]


def random_dirichlet(rng, graph, lo=-2.0, hi=2.0):
    return DirichletFunction.from_interior(graph, rng.uniform(lo, hi, graph.n_interior))


def random_power_spec(rng, n_max=12, constant_p=False, p_range=(2.0, 6.0),
                      m_range=(2.0, 8.0), lam_range=(0.1, 2.0), graph=None):
    """Random instance with a power-type nonlinearity and exact envelope."""
    g = graph if graph is not None else random_graph(rng, n_max)
    n, ni = g.n_vertices, g.n_interior
    if constant_p:
        p = ExponentField.constant(g, float(rng.uniform(*p_range)))
    else:
        p = ExponentField(g, rng.uniform(*p_range, n))
    q = Potential(g, rng.uniform(0.5, 2.0, ni))
    f = PowerPlus(g, rng.uniform(0.1, 2.0, ni), rng.uniform(*m_range, ni),
                  rng.uniform(0.1, 2.0, ni))
    return ProblemSpec(graph=g, p=p, q=q, f=f, lam=float(rng.uniform(*lam_range)))


def random_coercive_spec(rng, n_max=8, lam_range=(0.1, 2.0)):
    """Random instance whose top source exponent sits below the least p."""
    g = random_graph(rng, n_max)
    ni = g.n_interior
    pval = float(rng.uniform(3.0, 6.0))
    p = ExponentField.constant(g, pval)
    m = rng.uniform(2.0, pval - 0.3, ni)
    q = Potential(g, rng.uniform(0.5, 2.0, ni))
    f = PowerPlus(g, rng.uniform(0.1, 2.0, ni), m, rng.uniform(0.1, 2.0, ni))
    return ProblemSpec(graph=g, p=p, q=q, f=f, lam=float(rng.uniform(*lam_range)))


def cubic_star_spec(rng=None, lam=0.4):
    """The two-solution benchmark: path graph, p=2, q=1, f = t^3 + 0.1."""
    g = make_path_graph()
    return ProblemSpec(
        graph=g,
        p=ExponentField.constant(g, 2.0),
        q=Potential.constant(g, 1.0),
        f=PowerPlus(g, 1.0, 4.0, 0.1),
        lam=lam,
    )


def constant_source_spec(lam=1.0):
    """Path graph, p=2, q=1, f = 1: the closed-form instance u(v1) = lam/3."""
    g = make_path_graph()
    return ProblemSpec(
        graph=g,
        p=ExponentField.constant(g, 2.0),
        q=Potential.constant(g, 1.0),
        f=PowerPlus(g, 0.0, 2.0, 1.0),
        lam=lam,
    )


def bisect_roots(fn, hi=1e6, points=3000):
    """All positive roots of fn on [0, hi]: grid bracketing plus bisection."""
    grid = [0.0] + list(np.logspace(-8, np.log10(hi), points))
    vals = [fn(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            if a > 0:
                roots.append(a)
            continue
        if fa * fb < 0:
            x, y, fx = a, b, fa
            for _ in range(200):
                mid = 0.5 * (x + y)
                fm = fn(mid)
                if fm == 0.0:
                    x = y = mid
                    break
                if fx * fm < 0:
                    y = mid
                else:
                    x, fx = mid, fm
            roots.append(0.5 * (x + y))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return sorted(roots)


def scalar_equation(spec):
    """The one-interior-vertex stationarity function
    t -> (sum_y w + q) sp(t, p) - lam f(t)."""
    g = spec.graph
    assert g.n_interior == 1
    W = float(np.sum(dense_weights(g)[0]))
    qv = float(spec.q.values[0])
    pv = float(spec.p.values[0])

    def fn(t):
        return (W + qv) * signed_power(t, pv) - spec.lam * spec.f._rate(0, max(t, 0.0))

    return fn


def random_star_spec(rng, seedless_guards=True):
    """Random one-interior-vertex instance with a well-posed oracle root set.

    Mixes coercive (single root) and superlinear lambda < lambda2 (two roots)
    draws; redraws when roots nearly collide or the largest root exceeds 1e3
    (gradient rounding noise at scale R grows like R^(p-1), making tighter
    than 1e-6 certification impossible in doubles there).
    """
    while True:
        n_b = int(rng.integers(1, 4))
        ws = rng.uniform(0.3, 2.5, n_b)
        g = build_graph(["c"], [f"b{i}" for i in range(n_b)],
                        [("c", f"b{i}", float(ws[i])) for i in range(n_b)])
        coercive = bool(rng.integers(0, 2))
        if coercive:
            pv = float(rng.uniform(3.0, 6.0))
            mv = float(rng.uniform(2.0, pv - 0.3))
        else:
            pv = float(rng.uniform(2.0, 4.0))
            mv = float(rng.uniform(pv + 0.5, pv + 4.0))
        p = ExponentField.constant(g, pv)
        q = Potential(g, [float(rng.uniform(0.3, 2.0))])
        f = PowerPlus(g, float(rng.uniform(0.2, 2.0)), mv, float(rng.uniform(0.2, 2.0)))
        if coercive:
            lam = float(rng.uniform(0.1, 2.0))
        else:
            th = lambda_thresholds(instance_constants(
                ProblemSpec(graph=g, p=p, q=q, f=f, lam=1.0)))
            lam = float(rng.uniform(0.1, 0.9) * th.lambda2)
        spec = ProblemSpec(graph=g, p=p, q=q, f=f, lam=lam)
        # The guard scan uses a range far beyond the stated oracle interval so
        # that an out-of-range root triggers a redraw instead of hiding.
        roots = bisect_roots(scalar_equation(spec), hi=1e12, points=5000)
        if not seedless_guards:
            return spec, roots
        if len(roots) >= 2 and roots[1] - roots[0] < 1e-2:
            continue
        if roots and roots[-1] > 1e3:
            continue
        # At root scale R the stationarity terms are O((W+q) R^(p-1)), so the
        # gradient carries that much rounding noise; keep it a comfortable
        # factor under the 1e-9 certification tolerance.
        if roots:
            R = roots[-1]
            qv = float(q.values[0])
            W = float(np.sum(dense_weights(g)[0]))
            noise = np.finfo(float).eps * (
                (W + qv) * (1.0 + R) ** (pv - 1.0)
                + lam * (f.phi[0] * (1.0 + R) ** (mv - 1.0) + f.psi[0])
            )
            if noise > 2e-11:
                continue
        return spec, bisect_roots(scalar_equation(spec))


@pytest.fixture
def path_graph():
    return make_path_graph()


@pytest.fixture
def triangle_graph():
    return make_triangle_pendant_graph()


def _grid(side, seed, member, p, phi, m, psi):
    """The ``member``-th side x side grid of ``seed`` as the benchmark's grid
    workloads draw it: 4-neighbour grid, outer ring without corners as the
    boundary, weights in [0.5, 1.5] and q in [0.5, 2] from the stream keyed
    by (seed, side, member), uniform p, f = phi t^(m-1) + psi and lambda = 1."""
    rng = np.random.default_rng([seed, side, member])

    def lab(i, j):
        return f"g{i}_{j}"

    idx = range(1, side + 1)
    interior = [lab(i, j) for i in idx for j in idx]
    boundary = ([lab(0, j) for j in idx] + [lab(side + 1, j) for j in idx]
                + [lab(i, 0) for i in idx] + [lab(i, side + 1) for i in idx])
    pairs = []
    for i in idx:
        for j in idx:
            if i == 1:
                pairs.append((lab(0, j), lab(1, j)))
            if j == 1:
                pairs.append((lab(i, 0), lab(i, 1)))
            pairs.append((lab(i, j), lab(i + 1, j)))
            pairs.append((lab(i, j), lab(i, j + 1)))
    weights = rng.uniform(0.5, 1.5, len(pairs))
    qs = rng.uniform(0.5, 2.0, len(interior))
    g = build_graph(interior, boundary,
                    [(a, b, float(w)) for (a, b), w in zip(pairs, weights)])
    return ProblemSpec(g, ExponentField.constant(g, p), Potential(g, qs),
                       PowerPlus(g, phi=phi, m=m, psi=psi), 1.0)


def direct_grid(side, seed, member):
    """The ``grid_direct`` workload's grid (``_grid``): p = 3 and f = t^1.5 + 1,
    so every lambda is in the direct regime; lambda = 1."""
    return _grid(side, seed, member, 3.0, 1.0, 2.5, 1.0)


def two_solution_grid(side, seed, member):
    """The ``grid_two_solution`` workload's grid (``_grid``): p = 2, f = t^3 +
    0.1 and lambda = lambda2 / 2."""
    spec = _grid(side, seed, member, 2.0, 1.0, 4.0, 0.1)
    lambda2 = lambda_thresholds(instance_constants(spec)).lambda2
    return ProblemSpec(spec.graph, spec.p, spec.q, spec.f, 0.5 * lambda2)
