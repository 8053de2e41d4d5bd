"""Discrete p(x)-calculus on a weighted graph.

Implements the edge flux of the p(x)-Laplacian from both ends of every edge
in ``Graph.edges``, each end an ordered pair (x, y) of the paper's double
sums (the one home of the operator: the pairings and the certificate
``energy.residual_original`` read it), the p(x)-gradient and Laplacian at a
vertex, graph integration, the Green-type pairing, and the norm /
sign-splitting machinery of the Dirichlet space A (zero on the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, InvariantError
from .graphs import Graph, VertexId
from .model import ExponentField, _uniform


def signed_power(d: float, p: float) -> float:
    """|d|^(p-2) * d, with the value 0 at d = 0 (also for p = 2)."""
    if p < 2:
        raise DomainError(f"signed_power requires p >= 2, got p = {p}")
    if d == 0.0:
        return 0.0
    return math.copysign(abs(d) ** (p - 1.0), d)


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """Real values attached to every vertex of a graph, in vertex order."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n_vertices,):
            raise InvariantError(f"expected {self.graph.n_vertices} values, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, graph: Graph, data: Mapping[VertexId, float], default: float | None = None):
        vals = np.empty(graph.n_vertices)
        for i, v in enumerate(graph.vertices):
            if v in data:
                vals[i] = float(data[v])
            elif default is not None:
                vals[i] = default
            else:
                raise InvariantError(f"no value supplied for vertex {v!r}")
        return cls(graph, vals)

    def value(self, x: VertexId) -> float:
        return float(self.values[self.graph.index_of(x)])

    def as_dict(self) -> dict[VertexId, float]:
        return {v: float(self.values[i]) for i, v in enumerate(self.graph.vertices)}


class DirichletFunction(VertexFunction):
    """A VertexFunction that is exactly zero on every boundary vertex."""

    def __post_init__(self):
        super().__post_init__()
        bvals = self.values[self.graph.n_interior:]
        if bvals.size and np.any(bvals != 0.0):
            raise InvariantError("boundary values must be exactly zero")

    @classmethod
    def zeros(cls, graph: Graph) -> "DirichletFunction":
        return cls(graph, np.zeros(graph.n_vertices))

    @classmethod
    def from_interior(cls, graph: Graph, interior_values) -> "DirichletFunction":
        vals = np.zeros(graph.n_vertices)
        vals[: graph.n_interior] = interior_vector(graph, interior_values)
        return cls(graph, vals)

    def interior(self) -> np.ndarray:
        return self.values[: self.graph.n_interior]


def interior_vector(graph: Graph, values) -> np.ndarray:
    """A float copy of the values on S; InvariantError for a wrong shape."""
    v = np.array(values, dtype=float)
    if v.shape != (graph.n_interior,):
        raise InvariantError(f"expected {graph.n_interior} interior values, got shape {v.shape}")
    return v


def _as_values(u) -> np.ndarray:
    return u.values if isinstance(u, VertexFunction) else np.asarray(u, dtype=float)


def edge_flux(g: Graph, p: ExponentField, u) -> np.ndarray:
    """The (2, E) edge term of the p(x)-Laplacian over ``g.edges`` (i, j):
    row 0 is |d|^(p(i)-2) d w with d = u(i) - u(j), the term of the pair
    (i, j), and row 1 the term of (j, i), from -d and p(j).  A uniform p is
    one 0-d exponent (``_uniform``): one power per edge, not two.
    ``minus_laplacian`` sums it at each vertex, ``edge_pairing`` pairs it
    with v, and ``residual_original`` certifies with it."""
    ei, ej, w = g.edges
    uv = _as_values(u)
    d = uv[ei] - uv[ej]
    pv = _uniform(p.values)
    pm1 = (pv if pv.ndim == 0 else pv[np.stack((ei, ej))]) - 1.0
    return np.copysign(np.abs(d) ** pm1, (d, -d)) * w  # |0|^(p-1) = 0 for p >= 2


def gather(uv: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``uv[..., index]``: plain indexing for a vector, ``take`` for a stack
    (each is the fast form for its shape)."""
    return uv[index] if uv.ndim == 1 else uv.take(index, axis=-1)


def index_sums(index: np.ndarray, a: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(index, a, size)`` along the last axis of ``a``: for a
    (K, E) stack, one bincount with each row's indices offset by k * size."""
    if a.ndim == 1:
        return np.bincount(index, a, size)
    k = len(a)
    offset = (np.arange(k) * size)[:, None] + index
    return np.bincount(offset.ravel(), a.ravel(), k * size).reshape(k, size)


def minus_laplacian(g: Graph, a: np.ndarray) -> np.ndarray:
    """-lap_p u at every vertex, boundary included, from its edge flux ``a``."""
    ei, ej, _ = g.edges
    return np.bincount(ei, a[0], g.n_vertices) + np.bincount(ej, a[1], g.n_vertices)


def edge_pairing(g: Graph, a: np.ndarray, vv: np.ndarray) -> float:
    """The sum over ordered pairs (r, c) of a(r, c) (v(r) - v(c))."""
    ei, ej, _ = g.edges
    return float(np.sum((a[0] - a[1]) * (vv[ei] - vv[ej])))


def p_gradient(g: Graph, p: ExponentField, u: VertexFunction, x: VertexId) -> np.ndarray:
    """Gradient vector at x: component y is |u(y)-u(x)|^(p(x)-2) (u(y)-u(x)) sqrt(w(x,y))."""
    ends = np.stack(g.edges[:2])
    at_x = ends == g.index_of(x)  # the edges at x, by the end that x is
    out = np.zeros(g.n_vertices)
    out[ends[::-1][at_x]] = -(edge_flux(g, p, u) / np.sqrt(g.edges[2]))[at_x]
    return out


def p_laplacian(g: Graph, p: ExponentField, u: VertexFunction, x: VertexId) -> float:
    """Sum over y of |u(y)-u(x)|^(p(x)-2) (u(y)-u(x)) w(x,y)."""
    return -float(minus_laplacian(g, edge_flux(g, p, u))[g.index_of(x)])


def integrate(g: Graph, v: VertexFunction) -> float:
    """Integral of v over the whole vertex set, i.e. the plain sum."""
    return float(np.sum(_as_values(v)))


def green_pairing(g: Graph, p: ExponentField, u: VertexFunction,
                  v: VertexFunction) -> tuple[float, float]:
    """Both sides of the pairing identity, from the edge flux a of u.

    lhs = 2 * sum_x (-lap_p u(x)) v(x); rhs = sum a(r, c) (v(r) - v(c)) pairs
    the p(x)-gradient of u with the plain gradient of v.  The two sides agree
    when the exponent field is uniform; with per-vertex exponents the double
    sum is no longer symmetrizable and they generally differ.
    """
    vv = _as_values(v)
    a = edge_flux(g, p, u)
    return 2.0 * float(np.dot(minus_laplacian(g, a), vv)), edge_pairing(g, a, vv)


def norm(u: VertexFunction) -> float:
    """Euclidean norm over all vertices; finite whenever the norm is a double,
    though the sum of squares behind it may not be."""
    return math.hypot(*_as_values(u))


def norm_and_parts(u: DirichletFunction) -> tuple[float, DirichletFunction, DirichletFunction]:
    """(||u||, u_plus, u_minus); both parts vanish on the boundary again."""
    return (norm(u), DirichletFunction(u.graph, np.maximum(u.values, 0.0)),
            DirichletFunction(u.graph, np.maximum(-u.values, 0.0)))
