"""Weighted finite graphs with an interior / boundary vertex split.

The domain of every problem in this package is a simple, connected, undirected
graph whose vertex set is partitioned into a nonempty interior S and a
nonempty boundary dS.  Edge weights are strictly positive; the edges are
stored once, as sorted ordered vertex pairs, in O(E) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Disconnected,
    DuplicateVertex,
    EmptySet,
    NonPositiveWeight,
    OverlappingSets,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)

VertexId = str

Edge = tuple[VertexId, VertexId, float]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted graph over interior + boundary vertices.

    Vertices keep their insertion order (interior first, then boundary), and
    every matrix/vector in the package is indexed in that order, so results
    are reproducible run to run.  Equality and hashing are by identity, as
    for the fields and the problem built on a graph.
    """

    interior: tuple[VertexId, ...]
    boundary: tuple[VertexId, ...]
    # (rows, cols, w): each edge once per direction, sorted by (row, col) so
    # that every sum over the pairs runs in one fixed order.
    ordered_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self.interior + self.boundary

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def n_vertices(self) -> int:
        return len(self.interior) + len(self.boundary)

    @cached_property
    def index(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense read-only (n, n) weights, 0 for no edge, built on first use.

        For tests and inspection only: it costs O(n^2) memory."""
        rows, cols, w = self.ordered_pairs
        dense = np.zeros((self.n_vertices, self.n_vertices))
        dense[rows, cols] = w
        dense.setflags(write=False)
        return dense

    def index_of(self, x: VertexId) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownVertex(f"vertex {x!r} is not part of this graph") from None

    def max_weight(self) -> float:
        return float(self.ordered_pairs[2].max(initial=0.0))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


def _check_labels(interior: Sequence[VertexId], boundary: Sequence[VertexId]) -> None:
    if not interior or not boundary:
        raise EmptySet("interior and boundary vertex sets must both be nonempty")
    for v in list(interior) + list(boundary):
        if not isinstance(v, str) or not v:
            raise DuplicateVertex(f"vertex labels must be nonempty strings, got {v!r}")
    overlap = set(interior) & set(boundary)
    if overlap:
        raise OverlappingSets(f"vertices in both sets: {sorted(overlap)}")
    for part in (interior, boundary):
        if len(set(part)) != len(part):
            dup = next(v for v in part if list(part).count(v) > 1)
            raise DuplicateVertex(f"vertex {dup!r} appears more than once")


def _connected(n: int, rows: np.ndarray, cols: np.ndarray) -> bool:
    # Breadth-first traversal, one frontier at a time, over pairs sorted by
    # row: the neighbours of x are cols[start[x]:start[x + 1]], and each
    # vertex enters the frontier once, so every slice is read once (O(E)).
    start = np.searchsorted(rows, np.arange(n + 1))
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    slot = np.empty(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        offsets = np.cumsum(counts) - counts
        nbrs = cols[np.arange(int(counts.sum())) + np.repeat(lo - offsets, counts)]
        nbrs = nbrs[~seen[nbrs]]
        # Keep one copy of each new vertex: the last write to slot[x] wins.
        # (np.unique would do, but pages in about 1.6 MB of code on first use.)
        slot[nbrs] = np.arange(nbrs.size)
        frontier = nbrs[slot[nbrs] == np.arange(nbrs.size)]
        seen[frontier] = True
    return bool(seen.all())


def build_graph(
    interior: Sequence[VertexId],
    boundary: Sequence[VertexId],
    edges: Iterable[Edge],
) -> Graph:
    """Build and fully validate a graph from vertex lists and weighted edges.

    Raises DuplicateVertex, OverlappingSets, EmptySet, UnknownEndpoint,
    SelfLoop, NonPositiveWeight or Disconnected on bad input.
    """
    _check_labels(interior, boundary)
    labels = tuple(interior) + tuple(boundary)
    index = {v: i for i, v in enumerate(labels)}
    heads: list[int] = []
    tails: list[int] = []
    ws: list[float] = []
    for a, b, w in edges:
        if a not in index:
            raise UnknownEndpoint(f"edge endpoint {a!r} is not a declared vertex")
        if b not in index:
            raise UnknownEndpoint(f"edge endpoint {b!r} is not a declared vertex")
        if a == b:
            raise SelfLoop(f"self-edge at {a!r}")
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise NonPositiveWeight(f"edge ({a!r}, {b!r}) has weight {w}, need > 0")
        heads.append(index[a])
        tails.append(index[b])
        ws.append(w)
    rows = np.array(heads + tails, dtype=np.int64)
    cols = np.array(tails + heads, dtype=np.int64)
    order = np.lexsort((cols, rows))
    pairs = (rows[order], cols[order], np.array(ws + ws)[order])
    repeated = np.flatnonzero(np.diff(pairs[0] * len(labels) + pairs[1]) == 0)
    if repeated.size:
        r, c = pairs[0][repeated[0]], pairs[1][repeated[0]]
        raise DuplicateVertex(f"duplicate edge ({labels[r]!r}, {labels[c]!r})")
    for arr in pairs:
        arr.setflags(write=False)
    if not _connected(len(labels), pairs[0], pairs[1]):
        raise Disconnected("graph is not connected")
    return Graph(tuple(interior), tuple(boundary), pairs)


def validate_graph(g: Graph) -> ValidationReport:
    """Re-check every structural invariant; failures go into the report."""
    report = ValidationReport()
    report.add("nonempty_sets", bool(g.interior) and bool(g.boundary))
    overlap = set(g.interior) & set(g.boundary)
    report.add("disjoint_sets", not overlap, f"overlap: {sorted(overlap)}" if overlap else "")
    n = g.n_vertices
    report.add("unique_labels", len(set(g.vertices)) == n)
    rows, cols, w = (np.asarray(a) for a in g.ordered_pairs)
    shape_ok = (
        rows.ndim == 1 and rows.shape == cols.shape == w.shape
        and rows.dtype.kind in "iu" and cols.dtype.kind in "iu"
        and bool(np.all((0 <= rows) & (rows < n) & (0 <= cols) & (cols < n)))
        # row * n + col grows strictly: sorted by (row, col), no pair twice
        and bool(np.all(np.diff(rows * n + cols) > 0))
    )
    report.add("matrix_shape", shape_ok, "" if shape_ok else "need sorted, unique, in-range pairs")
    if not shape_ok:
        return report
    report.add("nonnegative_weights", bool(np.all(w > 0)))
    # Sorted pairs are symmetric exactly when their transposes, sorted the
    # same way, are the same pairs with the same weights.
    t = np.lexsort((rows, cols))
    sym = bool(np.array_equal(cols[t], rows) and np.array_equal(rows[t], cols)
               and np.array_equal(w[t], w))
    report.add("symmetry", sym, "" if sym else "weights[x, y] != weights[y, x] somewhere")
    report.add("zero_diagonal", bool(np.all(rows != cols)))
    report.add("connected", n > 0 and _connected(n, rows, cols))
    return report


@dataclass(frozen=True)
class GraphSummary:
    n_interior: int
    n_boundary: int
    n_vertices: int
    max_weight: float
    degrees: dict[VertexId, int]


def graph_summary(g: Graph) -> GraphSummary:
    """Cardinalities, the maximal edge weight, and the degree map."""
    degrees = dict(zip(g.vertices, np.bincount(g.ordered_pairs[0], minlength=g.n_vertices).tolist()))
    return GraphSummary(g.n_interior, g.n_boundary, g.n_vertices, g.max_weight(), degrees)
