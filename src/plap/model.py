"""Problem data: exponent field, potential, nonlinearity, growth envelope.

A full instance bundles a graph, a per-vertex exponent p >= 2, a strictly
positive interior potential q, a nonlinearity f(x, t) defined for t >= 0
together with a two-sided power growth envelope, and the source strength
lambda > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvariantError, NegativeArgument
from .graphs import Graph, VertexId
from .quadrature import panel_quadrature

_SLOPE_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def _uniform(a: np.ndarray) -> np.ndarray:
    """a's one value as a 0-d array when every entry holds it, else a: numpy's
    fast powers, as for a float, without a float's 0.25 us conversion."""
    return np.array(a[0]) if a.size and (a == a[0]).all() else a


def _vertex_array(graph: Graph, data, labels: Sequence[VertexId], what: str,
                  lo: float = 0.0, closed: bool = False) -> np.ndarray:
    """The read-only values of field ``what`` over ``labels`` (the interior
    S or all vertices S-bar) from a scalar, a sequence in vertex order or a
    label->value map, each finite and > lo (>= lo when ``closed``).  A
    read-only float64 array is checked and shared, not copied."""
    if isinstance(data, Mapping):
        missing = [v for v in labels if v not in data]
        if missing:
            raise InvariantError(f"{what}: no value for vertices {missing}")
        if len(data) != len(labels):  # every label has a value, so some keys are extra
            known = set(labels)
            raise InvariantError(f"{what}: unknown vertices {[k for k in data if k not in known]}")
        data = [float(data[v]) for v in labels]
    shared = type(data) is np.ndarray and data.dtype == float and not data.flags.writeable
    arr = data if shared else np.array(data, dtype=float)
    if arr.ndim == 0:
        arr = np.full(len(labels), arr)
    if arr.shape != (len(labels),):
        raise InvariantError(f"{what}: expected {len(labels)} values, got shape {arr.shape}")
    ok = np.isfinite(arr) & ((arr >= lo) if closed else (arr > lo))
    if not ok.all():
        k = int(np.argmin(ok))
        domain = "S" if len(labels) == graph.n_interior else "S-bar"
        raise InvariantError(f"{what}({labels[k]}) = {arr[k]:g} violates {what}: {domain} -> "
                             f"{'[' if closed else '('}{lo:g}, inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ExponentField:
    """p: vertex -> [2, inf), read-only, in vertex order (interior first)."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _vertex_array(
            self.graph, self.values, self.graph.vertices, "p", lo=2.0, closed=True))

    @classmethod
    def constant(cls, graph: Graph, p: float) -> "ExponentField":
        return cls(graph, np.full(graph.n_vertices, float(p)))

    def interior(self) -> np.ndarray:
        return self.values[: self.graph.n_interior]


@dataclass(frozen=True, eq=False)
class Potential:
    """q: interior vertex -> (0, inf)."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _vertex_array(
            self.graph, self.values, self.graph.interior, "q"))

    @classmethod
    def constant(cls, graph: Graph, q: float) -> "Potential":
        return cls(graph, np.full(graph.n_interior, float(q)))


@dataclass(frozen=True, eq=False)
class GrowthEnvelope:
    """Two-sided power bounds on f over the interior:

        psi1(x) + phi1(x) t^(m1(x)-1)  <=  f(x, t)  <=  phi2(x) t^(m2(x)-1) + psi2(x)

    for all t >= 0, with m1, m2 >= 2 and phi/psi strictly positive.
    """

    graph: Graph
    m1: np.ndarray
    m2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self):
        for name in ("m1", "m2", "phi1", "phi2", "psi1", "psi2"):
            lo, closed = (2.0, True) if name[0] == "m" else (0.0, False)
            object.__setattr__(self, name, _vertex_array(
                self.graph, getattr(self, name), self.graph.interior, name, lo, closed))


class Nonlinearity:
    """Base class: f(x, t) for interior x and t >= 0, plus its primitive F.

    A subclass keeps its per-vertex parameter arrays in ``_params``, writes f
    once as the vectorized ``_rate(i, t)`` and F at most once as a closed-form
    ``_primitive(i, t)``; otherwise F comes from ``panel_quadrature``.  ``i``
    is a vertex index or an index array broadcast against the points, and
    ``i = None`` is the whole interior (``rate_vector``, ``primitive_vector``,
    ``slope_vector``), read along the last axis of t, which may be a (K, n)
    stack.  The slope d_t f is a difference quotient of ``_rate``
    unless a subclass writes it in closed form, and ``rate_and_primitive``
    calls both vector forms unless a subclass shares work between them.
    """

    kind = "custom"
    _params: tuple[np.ndarray, ...] = ()

    def __init__(self, graph: Graph, envelope: GrowthEnvelope | None):
        self.graph = graph
        self.envelope = envelope

    def _at(self, i):
        # The whole interior reads the arrays unindexed: indexing them, even
        # with slice(None), costs about 0.5 us per call.
        return self._params if i is None else [a[i] for a in self._params]

    def _primitive(self, i, t):
        if i is None:  # t is one value per interior vertex along its last axis
            i = np.broadcast_to(np.arange(t.shape[-1]), t.shape)
        return panel_quadrature(self._rate, i, t)

    # -- vector evaluation over the interior ------------------------------

    def rate_vector(self, t: np.ndarray) -> np.ndarray:
        return self._rate(None, t)

    def primitive_vector(self, t: np.ndarray) -> np.ndarray:
        return self._primitive(None, t)

    def rate_and_primitive(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, F) over the interior at t >= 0."""
        return self.rate_vector(t), self.primitive_vector(t)

    def slope_vector(self, t: np.ndarray) -> np.ndarray:
        """d_t f over the interior at t >= 0: a central difference of
        ``_rate``, one-sided where t is within a step of 0 so that f is read
        at t >= 0 only."""
        h = _SLOPE_STEP * (1.0 + t)
        lo, hi = np.maximum(t - h, 0.0), t + h
        return (self._rate(None, hi) - self._rate(None, lo)) / (hi - lo)

    def _interior_index(self, x: VertexId) -> int:
        i = self.graph.index_of(x)
        if i >= self.graph.n_interior:
            raise DomainError(f"nonlinearity is defined on interior vertices only, got {x!r}")
        return i


class PowerPlus(Nonlinearity):
    """f(x, t) = phi(x) t^(m(x)-1) + psi(x).

    phi = 0 is tolerated as a plain test fixture (constant source); such
    instances carry no growth envelope, so the threshold/regime machinery
    rejects them.
    """

    kind = "power_plus"

    def __init__(self, graph: Graph, phi, m, psi):
        self.phi = _vertex_array(graph, phi, graph.interior, "phi", closed=True)
        self.m = _vertex_array(graph, m, graph.interior, "m", lo=2.0, closed=True)
        self.psi = _vertex_array(graph, psi, graph.interior, "psi")
        # f is its own envelope, which shares the parameter arrays
        envelope = (GrowthEnvelope(graph, self.m, self.m, self.phi, self.phi, self.psi, self.psi)
                    if np.all(self.phi > 0.0) else None)
        super().__init__(graph, envelope)
        # m - 1 and phi / m once here, not on every call
        self._params = (self.phi, self.m, self.psi, self.m - 1.0, self.phi / self.m)

    @cached_property
    def _whole(self):  # the whole interior reads a uniform parameter as one value
        return tuple(map(_uniform, self._params))

    def _at(self, i):
        return self._whole if i is None else super()._at(i)

    def _rate(self, i, t):
        phi, _, psi, m_1, _ = self._at(i)
        return phi * t ** m_1 + psi

    def _primitive(self, i, t):
        _, _, psi, m_1, phi_m = self._at(i)
        return phi_m * (t ** m_1 * t) + psi * t

    def rate_and_primitive(self, t):
        # one power for both: F = phi/m (t^(m-1) t) + psi t
        phi, _, psi, m_1, phi_m = self._whole
        tm = t ** m_1
        return phi * tm + psi, phi_m * (tm * t) + psi * t

    def slope_vector(self, t):
        phi, m, _, m_1, _ = self._whole
        return phi * m_1 * t ** (m - 2.0)


class ArctanPower(Nonlinearity):
    """Smooth benchmark nonlinearity with arctan-modulated power growth:

        f(x, t) = (t+1)^(1 - exp(-t^2) + m(x)) * ((2/pi) arctan t + phi(x))
                  + |sin t| + psi(x) + 1.

    Positive for all t >= 0 whenever phi, psi > 0.  The attached envelope is
    derived from the chain of elementary bounds
        psi+1 + phi t^(m-1)  <=  f  <=  2^m (1+phi) t^(m+1) + 2^m (1+phi) + psi + 2,
    i.e. m1 = m, m2 = m + 2, phi2 = 2^m (1+phi), psi2 = 2^m (1+phi) + psi + 2.
    """

    kind = "arctan_power"

    def __init__(self, graph: Graph, m, phi, psi):
        self.m = _vertex_array(graph, m, graph.interior, "m", lo=2.0, closed=True)
        self.phi = _vertex_array(graph, phi, graph.interior, "phi")
        self.psi = _vertex_array(graph, psi, graph.interior, "psi")
        bulk = 2.0 ** self.m * (1.0 + self.phi)
        envelope = GrowthEnvelope(
            graph, m1=self.m, m2=self.m + 2.0, phi1=self.phi, phi2=bulk,
            psi1=self.psi + 1.0, psi2=bulk + self.psi + 2.0,
        )
        super().__init__(graph, envelope)
        self._params = (self.m, self.phi, self.psi)

    def _rate(self, i, t):
        m, phi, psi = self._at(i)
        expo = 1.0 - np.exp(-t * t) + m
        return (t + 1.0) ** expo * ((2.0 / np.pi) * np.arctan(t) + phi) \
            + np.abs(np.sin(t)) + psi + 1.0


class CustomNonlinearity(Nonlinearity):
    """Wrap an arbitrary callable f(label, t); primitive by quadrature."""

    kind = "custom"

    def __init__(self, graph: Graph, fn: Callable[[VertexId, float], float],
                 envelope: GrowthEnvelope | None = None,
                 primitive_fn: Callable[[VertexId, float], float] | None = None):
        super().__init__(graph, envelope)
        self._fn = fn
        self._primitive_fn = primitive_fn
        self._params = (np.arange(graph.n_interior),)

    def _call(self, fn, i, t):
        (k,) = self._at(i)
        labels = self.graph.vertices
        return np.vectorize(lambda j, s: fn(labels[j], s), otypes=[float])(k, t)

    def _rate(self, i, t):
        return self._call(self._fn, i, t)

    def _primitive(self, i, t):
        if self._primitive_fn is None:
            return super()._primitive(i, t)
        return self._call(self._primitive_fn, i, t)


def eval_f(n: Nonlinearity, x: VertexId, t: float) -> float:
    """f(x, t) for t >= 0."""
    if t < 0:
        raise NegativeArgument(f"f is only defined for t >= 0, got t = {t}")
    return float(n._rate(n._interior_index(x), float(t)))


def primitive_F(n: Nonlinearity, x: VertexId, t: float) -> float:
    """F(x, t) = integral of f(x, .) from 0 to t, for t >= 0."""
    if t < 0:
        raise NegativeArgument(f"F is only defined for t >= 0, got t = {t}")
    if t == 0:
        return 0.0
    return float(n._primitive(n._interior_index(x), float(t)))


@dataclass
class EnvelopeViolation:
    which: str  # "f_lower" | "f_upper" | "F_lower" | "F_upper"
    vertex: VertexId
    t: float
    value: float
    bound: float


@dataclass
class EnvelopeReport:
    grid: np.ndarray
    violations: list[EnvelopeViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_envelope(n: Nonlinearity, grid=None) -> EnvelopeReport:
    """Verify the declared growth envelope of ``n`` on a nonnegative grid
    (512 points on [0, 20] by default).

    The pointwise bounds on f are checked at every grid point; the integrated
    bounds on F (which follow from the pointwise ones) are spot-checked on a
    coarser subgrid, vectorized over 32 points per call, since F may require
    quadrature.  f depends on a vertex only through ``n._params``, so each
    distinct row of the parameter and envelope arrays is checked once, at its
    first vertex, and its violations are copied to every vertex holding it,
    in vertex order.  Without parameter arrays each vertex is its own row.
    """
    if n.envelope is None:
        raise DomainError("nonlinearity declares no growth envelope")
    env = n.envelope
    grid = np.linspace(0.0, 20.0, 512) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty grid")
    if grid.ndim != 1 or not np.all((grid >= 0) & (grid < np.inf)):  # NaN fails both
        raise DomainError("the grid must be 1-D, its points finite and >= 0")
    report = EnvelopeReport(grid=grid)
    f_slack = 1e-12
    F_slack = 1e-8  # far above the quadrature tolerance (1e-10 absolute, 1e-13 relative)
    sub = grid[::8] if grid.size > 16 else grid
    interior = n.graph.interior
    cols = n._params + (env.m1, env.m2, env.phi1, env.phi2, env.psi1, env.psi2) \
        if n._params else (np.arange(len(interior)),)
    rows = np.column_stack(cols)
    # One bytes key per vertex, equal for equal rows; in ``first`` later
    # entries overwrite earlier ones, so each row keeps its first vertex.
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    found = {}
    for i in first.values():
        x, found[i] = interior[i], []
        fvals = n._rate(i, grid)
        lower = env.psi1[i] + env.phi1[i] * grid ** (env.m1[i] - 1.0)
        upper = env.phi2[i] * grid ** (env.m2[i] - 1.0) + env.psi2[i]
        _flag(found[i], "f", x, grid, fvals, lower, upper, f_slack)
        # Slices of 32 points: a quadrature call costs ~0.15 ms before its
        # first point, and one over all of ``sub`` would hold every panel of
        # every point at once (~0.3 MB of arrays on the default grid; a
        # 32-point slice, at most ~0.2 MB).
        Fvals = np.concatenate([n._primitive(i, sub[k:k + 32]) for k in range(0, sub.size, 32)])
        lower = env.psi1[i] * sub + env.phi1[i] / env.m1[i] * sub ** env.m1[i]
        upper = env.phi2[i] / env.m2[i] * sub ** env.m2[i] + env.psi2[i] * sub
        _flag(found[i], "F", x, sub, Fvals, lower, upper, F_slack)
    if any(found.values()):
        for x, key in zip(interior, keys):
            report.violations += [replace(v, vertex=x) for v in found[first[key]]]
    return report


def _flag(out: list[EnvelopeViolation], which: str, x: VertexId, ts: np.ndarray,
          vals: np.ndarray, lower: np.ndarray, upper: np.ndarray, slack: float) -> None:
    # Masks find the violations; only those are visited, per t, lower first.
    low = vals < lower - slack * (1.0 + np.abs(lower))
    high = vals > upper + slack * (1.0 + np.abs(upper))
    for k in np.flatnonzero(low | high):
        t, v = float(ts[k]), float(vals[k])
        if low[k]:
            out.append(EnvelopeViolation(f"{which}_lower", x, t, v, float(lower[k])))
        if high[k]:
            out.append(EnvelopeViolation(f"{which}_upper", x, t, v, float(upper[k])))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A complete instance: graph, exponents, potential, nonlinearity, lambda."""

    graph: Graph
    p: ExponentField
    q: Potential
    f: Nonlinearity
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise InvariantError(f"lambda must be finite and > 0, got {self.lam}")
        for part, name in ((self.p, "p"), (self.q, "q"), (self.f, "f")):
            if part.graph is not self.graph:
                raise InvariantError(f"{name} is bound to a different graph")

    @cached_property
    def _kernel(self):
        """The ``energy.EvaluationKernel`` of this instance, built on first use."""
        from .energy import EvaluationKernel

        return EvaluationKernel(self)


@dataclass(frozen=True)
class InstanceConstants:
    """All scalar constants the threshold formulas consume."""

    n_interior: int
    n_boundary: int
    n_vertices: int
    max_weight: float
    p_minus: float
    p_plus: float
    pbar_minus: float
    pbar_plus: float
    q_minus: float
    q_plus: float
    m1_minus: float | None = None
    m1_plus: float | None = None
    m2_minus: float | None = None
    m2_plus: float | None = None
    phi1_min: float | None = None
    phi2_max: float | None = None
    psi1_min: float | None = None
    psi2_max: float | None = None

    @property
    def has_envelope(self) -> bool:
        return self.m1_minus is not None


def instance_constants(spec: ProblemSpec) -> InstanceConstants:
    """Collect cardinalities, weight/exponent/potential/envelope extrema."""
    g, p, q, env = spec.graph, spec.p, spec.q.values, spec.f.envelope
    kw = {}
    if env is not None:
        kw = dict(
            m1_minus=float(env.m1.min()), m1_plus=float(env.m1.max()),
            m2_minus=float(env.m2.min()), m2_plus=float(env.m2.max()),
            phi1_min=float(env.phi1.min()), phi2_max=float(env.phi2.max()),
            psi1_min=float(env.psi1.min()), psi2_max=float(env.psi2.max()),
        )
    return InstanceConstants(
        n_interior=g.n_interior, n_boundary=g.n_boundary, n_vertices=g.n_vertices,
        max_weight=g.max_weight(),
        p_minus=float(p.interior().min()), p_plus=float(p.interior().max()),
        pbar_minus=float(p.values.min()), pbar_plus=float(p.values.max()),
        q_minus=float(q.min()), q_plus=float(q.max()),
        **kw,
    )
