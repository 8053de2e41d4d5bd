"""Discrete p(x)-calculus on a weighted graph.

Implements the edge flux of the p(x)-Laplacian (one kernel for the operator,
energy gradient, residual and pairings), the p(x)-gradient and p(x)-Laplacian
at a vertex, graph integration, the Green-type pairing, and the norm /
sign-splitting machinery of the Dirichlet space A (zero on the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import DomainError, InvariantError
from .graphs import Graph, VertexId

if TYPE_CHECKING:  # pragma: no cover
    from .model import ExponentField


def signed_power(d: float, p: float) -> float:
    """|d|^(p-2) * d, with the value 0 at d = 0 (also for p = 2)."""
    if p < 2:
        raise DomainError(f"signed_power requires p >= 2, got p = {p}")
    if d == 0.0:
        return 0.0
    return math.copysign(abs(d) ** (p - 1.0), d)


def _signed_power_vec(d: np.ndarray, p_m1) -> np.ndarray:
    # sign(d)*|d|**(p-1) from p_m1 = p - 1 (an array or one float);
    # |0|**(p-1) = 0 for p >= 2, so no masking needed.
    return np.copysign(np.abs(d) ** p_m1, d)


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """Real values attached to every vertex of a graph, in vertex order."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n_vertices,):
            raise InvariantError(
                f"expected {self.graph.n_vertices} values, got shape {vals.shape}"
            )
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
        vals[: graph.n_interior] = np.asarray(interior_values, dtype=float)
        return cls(graph, vals)

    def interior(self) -> np.ndarray:
        return self.values[: self.graph.n_interior]


def _as_values(u) -> np.ndarray:
    return u.values if isinstance(u, VertexFunction) else np.asarray(u, dtype=float)


def edge_flux(g: Graph, p_rows_m1, uv: np.ndarray) -> np.ndarray:
    """a_k = |u(r)-u(c)|^(p(r)-2) (u(r)-u(c)) w(r,c) over ``g.ordered_pairs``,
    along the last axis of ``uv`` (a vertex array or a (K, n_vertices) stack).

    The one edge term of the p(x)-Laplacian (``p_rows_m1`` is p - 1 at the
    rows, or one float for a uniform p): ``minus_laplacian`` sums it per
    row, the gradient of J takes half its row sums minus half its column
    sums, and ``edge_pairing`` pairs it with v.
    """
    rows, cols, w = g.ordered_pairs
    return _signed_power_vec(gather(uv, rows) - gather(uv, cols), p_rows_m1) * w


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
    return np.bincount(g.ordered_pairs[0], weights=a, minlength=g.n_vertices)


def edge_pairing(g: Graph, a: np.ndarray, vv: np.ndarray) -> float:
    """sum over ordered pairs of a_k (v(r) - v(c))."""
    rows, cols, _ = g.ordered_pairs
    return float(np.sum(a * (vv[rows] - vv[cols])))


def _flux(g: Graph, p: "ExponentField", u) -> np.ndarray:
    return edge_flux(g, np.asarray(p.values)[g.ordered_pairs[0]] - 1.0, _as_values(u))


def p_gradient(g: Graph, p: "ExponentField", u: VertexFunction, x: VertexId) -> np.ndarray:
    """Gradient vector at x: component y is |u(y)-u(x)|^(p(x)-2) (u(y)-u(x)) sqrt(w(x,y))."""
    rows, cols, w = g.ordered_pairs
    at_x = rows == g.index_of(x)
    out = np.zeros(g.n_vertices)
    out[cols[at_x]] = -(_flux(g, p, u) / np.sqrt(w))[at_x]
    return out


def p_laplacian(g: Graph, p: "ExponentField", u: VertexFunction, x: VertexId) -> float:
    """Sum over y of |u(y)-u(x)|^(p(x)-2) (u(y)-u(x)) w(x,y)."""
    return -float(minus_laplacian(g, _flux(g, p, u))[g.index_of(x)])


def integrate(g: Graph, v: VertexFunction) -> float:
    """Integral of v over the whole vertex set, i.e. the plain sum."""
    return float(np.sum(_as_values(v)))


def green_pairing(
    g: Graph, p: "ExponentField", u: VertexFunction, v: VertexFunction
) -> tuple[float, float]:
    """Both sides of the pairing identity, from the edge flux a of u.

    lhs = 2 * sum_x (-lap_p u(x)) v(x); rhs = sum_k a_k (v(r) - v(c)) pairs
    the p(x)-gradient of u with the plain gradient of v.  The two sides agree
    when the exponent field is uniform; with per-vertex exponents the double
    sum is no longer symmetrizable and they generally differ.
    """
    vv = _as_values(v)
    a = _flux(g, p, u)
    return 2.0 * float(np.dot(minus_laplacian(g, a), vv)), edge_pairing(g, a, vv)


def norm(u: VertexFunction) -> float:
    """Euclidean norm over all vertices; finite whenever the norm is a double,
    though the sum of squares behind it may not be."""
    return math.hypot(*_as_values(u))


def norm_and_parts(u: DirichletFunction) -> tuple[float, DirichletFunction, DirichletFunction]:
    """(||u||, u_plus, u_minus); both parts vanish on the boundary again."""
    return (norm(u), DirichletFunction(u.graph, np.maximum(u.values, 0.0)),
            DirichletFunction(u.graph, np.maximum(-u.values, 0.0)))
