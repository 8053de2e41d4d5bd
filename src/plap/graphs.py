"""Weighted finite graphs with an interior / boundary vertex split.

The domain of every problem in this package is a simple, connected, undirected
graph whose vertex set is partitioned into a nonempty interior S and a
nonempty boundary dS.  Edge weights are strictly positive; a zero entry in the
weight matrix means "no edge".
"""

from __future__ import annotations

from collections import deque
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


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph over interior + boundary vertices.

    Vertices keep their insertion order (interior first, then boundary), and
    every matrix/vector in the package is indexed in that order, so results
    are reproducible run to run.
    """

    interior: tuple[VertexId, ...]
    boundary: tuple[VertexId, ...]
    weights: np.ndarray  # (n, n) symmetric, >= 0, zero diagonal

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
    def ordered_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ordered vertex pairs (r, c) with a positive weight.

        Returns (rows, cols, w); each undirected edge appears twice, once per
        direction.  Pairs are sorted by (row, col) for deterministic sums.
        """
        rows, cols = np.nonzero(self.weights)
        w = self.weights[rows, cols]
        return rows.astype(np.int64), cols.astype(np.int64), w

    def index_of(self, x: VertexId) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownVertex(f"vertex {x!r} is not part of this graph") from None

    def max_weight(self) -> float:
        return float(self.weights.max())

    def degree(self, x: VertexId) -> int:
        return int(np.count_nonzero(self.weights[self.index_of(x)]))


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


def _connected(weights: np.ndarray) -> bool:
    # Breadth-first traversal over positive-weight edges.
    n = weights.shape[0]
    seen = np.zeros(n, dtype=bool)
    queue: deque[int] = deque([0])
    seen[0] = True
    while queue:
        i = queue.popleft()
        for j in np.nonzero(weights[i])[0]:
            if not seen[j]:
                seen[j] = True
                queue.append(int(j))
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
    n = len(labels)
    weights = np.zeros((n, n))
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
        i, j = index[a], index[b]
        if weights[i, j] != 0.0:
            raise DuplicateVertex(f"duplicate edge ({a!r}, {b!r})")
        weights[i, j] = w
        weights[j, i] = w
    if not _connected(weights):
        raise Disconnected("graph is not connected")
    weights.setflags(write=False)
    return Graph(tuple(interior), tuple(boundary), weights)


def validate_graph(g: Graph) -> ValidationReport:
    """Re-check every structural invariant; failures go into the report."""
    report = ValidationReport()
    report.add("nonempty_sets", bool(g.interior) and bool(g.boundary))
    overlap = set(g.interior) & set(g.boundary)
    report.add("disjoint_sets", not overlap, f"overlap: {sorted(overlap)}" if overlap else "")
    labels = g.vertices
    report.add("unique_labels", len(set(labels)) == len(labels))
    w = np.asarray(g.weights)
    shape_ok = w.ndim == 2 and w.shape == (len(labels), len(labels))
    report.add("matrix_shape", shape_ok)
    if not shape_ok:
        return report
    report.add("nonnegative_weights", bool((w >= 0).all()))
    sym = bool(np.array_equal(w, w.T))
    report.add("symmetry", sym, "" if sym else "weights[x, y] != weights[y, x] somewhere")
    report.add("zero_diagonal", bool((np.diag(w) == 0).all()))
    report.add("connected", _connected(w))
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
    degrees = {v: g.degree(v) for v in g.vertices}
    return GraphSummary(g.n_interior, g.n_boundary, g.n_vertices, g.max_weight(), degrees)
