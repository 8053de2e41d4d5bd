"""Weighted finite graphs with an interior / boundary vertex split.

The domain of every problem in this package is a simple, connected, undirected
graph whose vertex set is partitioned into a nonempty interior S and a
nonempty boundary dS.  Edge weights are strictly positive and symmetric; the
graph holds each undirected edge once, as (ei, ej, w) with ei < ej.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
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
    # (ei, ej, w), read-only: each undirected edge once, with ei < ej, sorted
    # by (ei, ej) so that every sum over the edges runs in one fixed order.
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]

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

    def index_of(self, x: VertexId) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownVertex(f"vertex {x!r} is not part of this graph") from None

    def max_weight(self) -> float:
        return float(self.edges[2].max(initial=0.0))


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


def _index_labels(interior: Sequence[VertexId],
                  boundary: Sequence[VertexId]) -> dict[VertexId, int]:
    """The vertex index (interior first) of checked labels."""
    if not interior or not boundary:
        raise EmptySet("interior and boundary vertex sets must both be nonempty")
    labels = (*interior, *boundary)
    if not (all(map(isinstance, labels, repeat(str))) and all(labels)):
        v = next(v for v in labels if not isinstance(v, str) or not v)
        raise DuplicateVertex(f"vertex labels must be nonempty strings, got {v!r}")
    index = dict(zip(labels, range(len(labels))))
    if len(index) < len(labels):  # a label repeats, across the sets or within one
        overlap = set(interior) & set(boundary)
        if overlap:
            raise OverlappingSets(f"vertices in both sets: {sorted(overlap)}")
        dup = next(v for part in (interior, boundary) for v in part if list(part).count(v) > 1)
        raise DuplicateVertex(f"vertex {dup!r} appears more than once")
    return index


def _connected(n: int, ei: np.ndarray, ej: np.ndarray) -> bool:
    """Whether the edges (ei, ej) join all n vertices: min-label hooking with
    pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982).  In each
    round every tree root takes the smallest root across its edges, from
    either end, then every vertex jumps to its root until nothing changes.  A
    tree hooks or is hooked onto within two rounds, so there are O(log n)
    rounds.  Roots only fall and vertex 0 keeps its own, so once a round
    changes nothing the graph is connected exactly when every root is 0.
    """
    root = np.arange(n)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[ei], root[ej])
        np.minimum.at(hooked, root[ej], root[ei])
        if np.array_equal(hooked, root):
            return not root.any()
        while not np.array_equal(root, hooked):
            root, hooked = hooked, hooked[hooked]


def build_graph(
    interior: Sequence[VertexId],
    boundary: Sequence[VertexId],
    edges: Iterable[Edge],
) -> Graph:
    """Build and fully validate a graph from vertex lists and weighted edges.

    Raises DuplicateVertex, OverlappingSets, EmptySet, UnknownEndpoint,
    SelfLoop, NonPositiveWeight or Disconnected on bad input.  The edge list
    is checked as a whole: any unknown endpoint is reported before any
    self-loop, and any self-loop before any weight that is not finite and
    positive.
    """
    index = _index_labels(interior, boundary)
    labels = tuple(index)
    edges = list(edges)
    # Endpoints in edge order, head before tail, to name the first unknown one.
    names = chain.from_iterable(map(itemgetter(0, 1), edges))
    try:
        ends = np.fromiter(map(index.__getitem__, names), np.int64, 2 * len(edges))
    except KeyError as exc:
        raise UnknownEndpoint(f"edge endpoint {exc.args[0]!r} is not a declared vertex") from None
    lo, hi = np.minimum(ends[0::2], ends[1::2]), np.maximum(ends[0::2], ends[1::2])
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise SelfLoop(f"self-edge at {edges[loops[0]][0]!r}")
    ws = np.fromiter(map(float, map(itemgetter(2), edges)), float, len(edges))
    bad = np.flatnonzero(~np.isfinite(ws) | (ws <= 0.0))
    if bad.size:
        a, b, _ = edges[bad[0]]
        raise NonPositiveWeight(f"edge ({a!r}, {b!r}) has weight {float(ws[bad[0]])}, need > 0")
    key = lo * len(labels) + hi  # sorted by key is sorted by (lo, hi)
    order = np.argsort(key)
    stored = (lo[order], hi[order], ws[order])
    repeated = np.flatnonzero(np.diff(key[order]) == 0)
    if repeated.size:
        r, c = stored[0][repeated[0]], stored[1][repeated[0]]
        raise DuplicateVertex(f"duplicate edge ({labels[r]!r}, {labels[c]!r})")
    for arr in stored:
        arr.setflags(write=False)
    if not _connected(len(labels), stored[0], stored[1]):
        raise Disconnected("graph is not connected")
    return Graph(tuple(interior), tuple(boundary), stored)


def validate_graph(g: Graph) -> ValidationReport:
    """Re-check every structural invariant; failures go into the report."""
    report = ValidationReport()
    report.add("nonempty_sets", bool(g.interior) and bool(g.boundary))
    overlap = set(g.interior) & set(g.boundary)
    report.add("disjoint_sets", not overlap, f"overlap: {sorted(overlap)}" if overlap else "")
    n = np.int64(g.n_vertices)  # so that ei * n + ej is an int64 key for int32 edges too
    report.add("unique_labels", len(set(g.vertices)) == n)
    ei, ej, w = (np.asarray(a) for a in g.edges)
    shape_ok = (ei.ndim == 1 and ei.shape == ej.shape == w.shape
                and ei.dtype.kind in "iu" and ej.dtype.kind in "iu"
                and bool(np.all((0 <= ei) & (ei < n) & (0 <= ej) & (ej < n)))
                # ei * n + ej grows strictly: sorted by (ei, ej), no edge twice
                and bool(np.all(np.diff(ei * n + ej) > 0)))
    report.add("matrix_shape", shape_ok, "" if shape_ok else "need sorted, unique, in-range edges")
    if not shape_ok:
        return report
    report.add("nonnegative_weights", bool(np.all(np.isfinite(w) & (w > 0))))
    sym = bool(np.all(ei <= ej))  # each edge once, from its lower end: w(x, y) = w(y, x)
    report.add("symmetry", sym, "" if sym else "an edge (i, j) is stored with i > j")
    report.add("zero_diagonal", bool(np.all(ei != ej)))
    report.add("connected", n > 0 and _connected(n, ei, ej))
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
    ends = np.concatenate(g.edges[:2])
    degrees = dict(zip(g.vertices, np.bincount(ends, minlength=g.n_vertices).tolist()))
    return GraphSummary(g.n_interior, g.n_boundary, g.n_vertices, g.max_weight(), degrees)
