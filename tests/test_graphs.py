import time
import tracemalloc

import numpy as np
import pytest

from plap import (
    SolverOptions,
    build_graph,
    graph_summary,
    instance_constants,
    lambda_thresholds,
    solve,
    spec_to_document,
    validate_graph,
)
from plap.errors import (
    Disconnected,
    DuplicateVertex,
    EmptySet,
    NonPositiveWeight,
    OverlappingSets,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)
from plap.graphs import Graph, _connected

from conftest import (
    cubic_star_spec,
    dense_weights,
    direct_grid,
    make_path_graph,
    make_triangle_pendant_graph,
    random_graph,
    random_graph_input,
    random_power_spec,
    shuffled_path_input,
    two_solution_grid,
)


def test_triangle_pendant_summary():
    g = make_triangle_pendant_graph(a=1.0)
    s = graph_summary(g)
    assert (s.n_interior, s.n_boundary, s.n_vertices) == (3, 3, 6)
    assert s.max_weight == 1.0
    assert s.degrees["x1"] == 3
    assert s.degrees["x4"] == 1


def test_path_summary():
    s = graph_summary(make_path_graph())
    assert (s.n_interior, s.n_boundary, s.n_vertices) == (1, 2, 3)
    assert s.max_weight == 1.0
    assert s.degrees["v1"] == 2


def test_summary_max_weight_scales():
    assert graph_summary(make_triangle_pendant_graph(a=2.5)).max_weight == 2.5


def test_negative_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        build_graph(["x1", "x2"], ["x3"],
                    [("x1", "x2", -0.5), ("x2", "x3", 1.0)])


def test_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        build_graph(["x1"], ["x2"], [("x1", "x2", 0.0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(["a"], ["b"], [("a", "a", 1.0), ("a", "b", 1.0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownEndpoint):
        build_graph(["a"], ["b"], [("a", "zz", 1.0)])


@pytest.mark.parametrize("edges, error, message", [
    ([("zz", "b", 1.0)], UnknownEndpoint, "edge endpoint 'zz' is not a declared vertex"),
    ([("a", "zz", 1.0)], UnknownEndpoint, "edge endpoint 'zz' is not a declared vertex"),
    ([("a", "a", 1.0), ("a", "b", 1.0)], SelfLoop, "self-edge at 'a'"),
    ([("a", "b", 0.0)], NonPositiveWeight, "edge ('a', 'b') has weight 0.0, need > 0"),
    ([("a", "b", -0.5)], NonPositiveWeight, "edge ('a', 'b') has weight -0.5, need > 0"),
    ([("a", "b", float("nan"))], NonPositiveWeight, "edge ('a', 'b') has weight nan, need > 0"),
    ([("a", "b", float("inf"))], NonPositiveWeight, "edge ('a', 'b') has weight inf, need > 0"),
    ([("a", "b", 1.0), ("b", "a", 2.0)], DuplicateVertex, "duplicate edge ('a', 'b')"),
    # The first unknown endpoint in edge order, head before tail, is named.
    ([("a", "zz", 1.0), ("yy", "b", 1.0)], UnknownEndpoint,
     "edge endpoint 'zz' is not a declared vertex"),
    ([("xx", "zz", 1.0)], UnknownEndpoint, "edge endpoint 'xx' is not a declared vertex"),
    ([("a", 5, 1.0)], UnknownEndpoint, "edge endpoint 5 is not a declared vertex"),
    # Unknown endpoints come before self-loops, and self-loops before weights.
    ([("a", "a", 1.0), ("a", "zz", 1.0)], UnknownEndpoint,
     "edge endpoint 'zz' is not a declared vertex"),
    ([("a", "b", -1.0), ("b", "b", 1.0)], SelfLoop, "self-edge at 'b'"),
], ids=["unknown-head", "unknown-tail", "self-loop", "weight-0", "weight-negative",
        "weight-nan", "weight-inf", "duplicate-edge", "unknown-tail-before-later-head",
        "unknown-head-before-tail", "unknown-non-string", "unknown-before-self-loop",
        "self-loop-before-weight"])
def test_each_single_fault_raises_its_exact_message(edges, error, message):
    with pytest.raises(error) as info:
        build_graph(["a"], ["b"], edges)
    assert str(info.value) == message


@pytest.mark.parametrize("interior, boundary, error, message", [
    (["a", 3], ["b"], DuplicateVertex, "vertex labels must be nonempty strings, got 3"),
    (["a"], ["", "b"], DuplicateVertex, "vertex labels must be nonempty strings, got ''"),
    (["a", "b"], ["b", "a"], OverlappingSets, "vertices in both sets: ['a', 'b']"),
    (["a", "c", "c"], ["b", "b"], DuplicateVertex, "vertex 'c' appears more than once"),
    ([], ["b"], EmptySet, "interior and boundary vertex sets must both be nonempty"),
], ids=["non-string", "empty", "overlap", "repeated", "empty-set"])
def test_each_label_fault_raises_its_exact_message(interior, boundary, error, message):
    with pytest.raises(error) as info:
        build_graph(interior, boundary, [("a", "b", 1.0)])
    assert str(info.value) == message


def test_edges_from_a_generator_build_the_same_pairs_as_a_list():
    rng = np.random.default_rng(5)
    for _ in range(20):
        interior, boundary, edges = random_graph_input(rng)
        listed = build_graph(interior, boundary, edges).edges
        generated = build_graph(interior, boundary, (e for e in edges)).edges
        for x, y in zip(listed, generated):
            assert x.dtype == y.dtype and np.array_equal(x, y)
            assert not y.flags.writeable


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertex):
        build_graph(["a", "a"], ["b"], [("a", "b", 1.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateVertex):
        build_graph(["a"], ["b"], [("a", "b", 1.0), ("b", "a", 2.0)])


def test_overlapping_sets_rejected():
    with pytest.raises(OverlappingSets):
        build_graph(["a"], ["a", "b"], [("a", "b", 1.0)])


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        build_graph([], ["a", "b"], [("a", "b", 1.0)])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_graph(["a", "b"], ["c", "d"], [("a", "c", 1.0), ("b", "d", 1.0)])


def test_unknown_vertex_lookup():
    g = make_path_graph()
    with pytest.raises(UnknownVertex):
        g.index_of("nope")


def test_validation_passes_after_build():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_graph(rng)
        report = validate_graph(g)
        assert report.passed, report.failures()
        assert g.n_vertices == g.n_interior + g.n_boundary


def stored_edges(*triples):
    """``Graph.edges`` arrays from (ei, ej, weight) triples, in the given order."""
    ei, ej, w = zip(*triples)
    return np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64), np.array(w)


def test_validation_flags_injected_asymmetry():
    # w(v1, v0) = 1.0 from the edge (0, 1), but w(v0, v1) = 0.5 from (1, 0)
    g = Graph(("v1",), ("v0", "v2"), stored_edges((0, 1, 1.0), (0, 2, 1.0), (1, 0, 0.5)))
    report = validate_graph(g)
    assert [c.name for c in report.failures()] == ["symmetry"]


def test_validation_flags_isolated_vertex():
    g = Graph(("a",), ("b", "c"), stored_edges((0, 1, 1.0)))
    report = validate_graph(g)
    assert [c.name for c in report.failures()] == ["connected"]


# The path v0 -- v1 -- v2 with v1 interior: indices v1 = 0, v0 = 1, v2 = 2.
PATH_EDGES = [(0, 1, 1.0), (0, 2, 1.0)]


@pytest.mark.parametrize("stored, failing", [
    (PATH_EDGES[:1] + PATH_EDGES, "matrix_shape"),
    (PATH_EDGES[::-1], "matrix_shape"),
    (PATH_EDGES + [(0, 3, 1.0)], "matrix_shape"),
    ([(-1, 0, 1.0)] + PATH_EDGES, "matrix_shape"),
    ([(0, 0, 1.0)] + PATH_EDGES, "zero_diagonal"),
    (PATH_EDGES[:1] + [(0, 2, 0.0)], "nonnegative_weights"),
    (PATH_EDGES[:1] + [(0, 2, float("inf"))], "nonnegative_weights"),
    (PATH_EDGES[:1] + [(2, 0, 1.0)], "symmetry"),
], ids=["repeated", "unsorted", "index_too_large", "index_negative", "self_pair", "zero_weight",
        "infinite_weight", "higher_end_first"])
def test_validation_flags_malformed_pairs(stored, failing):
    assert validate_graph(Graph(("v1",), ("v0", "v2"), stored_edges(*PATH_EDGES))).passed
    report = validate_graph(Graph(("v1",), ("v0", "v2"), stored_edges(*stored)))
    assert [c.name for c in report.failures()] == [failing]


def test_validation_keys_int32_pairs_of_a_large_graph_in_int64():
    # ei * n + ej passes 2^31 here, so an int32 key would wrap around.
    g = build_graph(*shuffled_path_input(50_000))
    ei, ej, w = g.edges
    narrow = Graph(g.interior, g.boundary, (ei.astype(np.int32), ej.astype(np.int32), w))
    report = validate_graph(narrow)
    assert report.passed, report.failures()


def test_validation_reports_a_graph_without_vertices():
    empty = np.zeros(0, dtype=np.int64)
    report = validate_graph(Graph((), (), (empty, empty, np.zeros(0))))
    assert [c.name for c in report.failures()] == ["nonempty_sets", "connected"]


def test_edges_hold_each_input_edge_once_in_key_order():
    rng = np.random.default_rng(12)
    for _ in range(40):
        interior, boundary, edges = random_graph_input(rng)
        g = build_graph(interior, boundary, edges)
        ei, ej, w = g.edges
        assert ei.dtype == ej.dtype == np.int64 and ei.size == ej.size == w.size == len(edges)
        assert (ei < ej).all() and (np.diff(ei * g.n_vertices + ej) > 0).all()
        index = {v: i for i, v in enumerate(interior + boundary)}
        assert list(zip(ei.tolist(), ej.tolist(), w.tolist())) == sorted(
            (min(index[a], index[b]), max(index[a], index[b]), wv) for a, b, wv in edges)
        assert not any(a.flags.writeable for a in g.edges)
        for variant in ([(b, a, wv) for a, b, wv in edges], edges[::-1]):
            again = build_graph(interior, boundary, variant)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(again.edges, g.edges))
        assert set(vars(g)) == {"interior", "boundary", "edges"}  # nothing cached


def test_uniform_p_solves_build_no_ordered_pairs():
    for spec in (direct_grid(8, 0, 0), two_solution_grid(5, 7, 0)):
        g = spec.graph
        report = solve(spec)
        assert report.solutions
        assert set(vars(g)) <= {"interior", "boundary", "edges", "index"}
        # the kernel scatters with writable copies of the graph's read-only
        # edge ends (np.bincount copies a read-only index on every call)
        kernel = spec._kernel
        assert not any(a.flags.writeable for a in g.edges)
        assert kernel.ei.flags.writeable and kernel.ej.flags.writeable
        assert kernel.we is g.edges[2]


def test_grid_64_builds_validates_and_summarizes_in_edge_memory():
    side = 64
    # A side x side interior grid; the boundary is the ring of vertices one
    # step outside it, each joined to its one interior neighbour.
    interior = [f"{i},{j}" for i in range(side) for j in range(side)]
    boundary = ([f"{i},{j}" for i in (-1, side) for j in range(side)]
                + [f"{i},{j}" for j in (-1, side) for i in range(side)])
    edges = ([(f"{i},{j}", f"{i + 1},{j}", 1.0) for i in range(-1, side) for j in range(side)]
             + [(f"{i},{j}", f"{i},{j + 1}", 1.0) for i in range(side) for j in range(-1, side)])
    tracemalloc.start()
    try:
        g = build_graph(interior, boundary, edges)
        report = validate_graph(g)
        summary = graph_summary(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert summary.n_vertices == side * side + 4 * side
    assert len(g.edges[0]) == len(edges)
    assert peak < 16 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_library_caches_nothing_dense_on_the_graph():
    for spec in (cubic_star_spec(lam=0.4), random_power_spec(np.random.default_rng(2))):
        g = spec.graph
        validate_graph(g)
        graph_summary(g)
        lambda_thresholds(instance_constants(spec))
        solve(spec, SolverOptions(restarts=2))
        spec_to_document(spec)
        assert set(vars(g)) <= {"interior", "boundary", "edges", "index"}


def test_weight_matrix_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng)
        W = dense_weights(g)
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0.0)
        assert np.all(W >= 0.0)


def test_vertex_order_is_insertion_order():
    g = build_graph(["b", "a"], ["z", "y"],
                    [("b", "z", 1.0), ("a", "y", 1.0), ("a", "b", 1.0)])
    assert g.vertices == ("b", "a", "z", "y")


def union_find_connected(n, edges):
    """Reference: whether the index pairs in ``edges`` join all n vertices."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n)}) == 1


def both_directions(edges):
    """(rows, cols): both directions of each index pair, sorted by (row, col)."""
    heads, tails = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    rows, cols = np.concatenate((heads, tails)), np.concatenate((tails, heads))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def test_connectivity_matches_a_union_find_reference():
    rng = np.random.default_rng(28)
    verdicts = []
    for _ in range(250):
        interior, boundary, edges = random_graph_input(rng, n_max=30)
        labels = interior + boundary
        n, index = len(labels), {v: i for i, v in enumerate(labels)}
        pairs = [(index[a], index[b]) for a, b, _ in edges]
        bridges = [e for e in pairs if not union_find_connected(n, [f for f in pairs if f != e])]
        lone = int(rng.integers(n))
        variants = [pairs, [e for e in pairs if lone not in e],
                    [e for k, e in enumerate(pairs) if k != rng.integers(len(pairs))]]
        if bridges:
            cut = bridges[int(rng.integers(len(bridges)))]
            variants.append([e for e in pairs if e != cut])
        for kept in variants:
            expected = union_find_connected(n, kept)
            assert _connected(n, *both_directions(kept)) == expected
            picked = [(labels[a], labels[b], 1.0) for a, b in kept]
            if expected:
                assert validate_graph(build_graph(interior, boundary, picked)).passed
            else:
                with pytest.raises(Disconnected):
                    build_graph(interior, boundary, picked)
            verdicts.append(expected)
    assert sum(verdicts) > 300 and len(verdicts) - sum(verdicts) > 300


def tree_family(kind, n, rng):
    """Edges of a path, cycle, star or random tree on n vertices whose
    indices are shuffled, so that no family follows the vertex order."""
    perm = rng.permutation(n)
    k = np.arange(1, n)
    if kind in ("path", "cycle"):
        parent = k - 1
    elif kind == "star":
        parent = np.zeros(n - 1, dtype=np.int64)
    else:
        parent = (rng.random(n - 1) * k).astype(np.int64)
    edges = np.column_stack((perm[k], perm[parent]))
    if kind == "cycle":
        edges = np.vstack((edges, [[perm[-1], perm[0]]]))
    return edges


@pytest.mark.parametrize("kind", ["path", "cycle", "star", "tree"])
@pytest.mark.parametrize("n", [3, 17, 1000, 10 ** 5])
def test_connectivity_on_shuffled_families(kind, n):
    rng = np.random.default_rng([n, len(kind)])
    edges = tree_family(kind, n, rng)
    assert _connected(n, *both_directions(edges))
    assert not _connected(n + 1, *both_directions(edges))  # one vertex left alone
    cut = np.delete(edges, int(rng.integers(len(edges))), axis=0)
    # A tree edge is a bridge; a cycle stays connected without any one edge.
    assert _connected(n, *both_directions(cut)) == (kind == "cycle")


def test_shuffled_path_of_1e5_vertices_builds_and_validates_in_half_a_second():
    interior, boundary, edges = shuffled_path_input(10 ** 5)
    t0 = time.perf_counter()
    g = build_graph(interior, boundary, edges)
    report = validate_graph(g)
    elapsed = time.perf_counter() - t0
    assert report.passed and g.n_vertices == 10 ** 5
    assert elapsed < 0.5, f"build and validate took {elapsed:.2f} s"
