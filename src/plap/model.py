"""Problem data: exponent field, potential, nonlinearity, growth envelope.

A full instance bundles a graph, a per-vertex exponent p >= 2, a strictly
positive interior potential q, a nonlinearity f(x, t) defined for t >= 0
together with a two-sided power growth envelope, and the source strength
lambda > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvariantError, NegativeArgument
from .graphs import Graph, VertexId
from .quadrature import panel_quadrature

_SLOPE_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def _vertex_array(
    graph: Graph, data, labels: Sequence[VertexId], what: str
) -> np.ndarray:
    """Accept a scalar, a sequence in vertex order, or a label->value map."""
    if isinstance(data, Mapping):
        missing = [v for v in labels if v not in data]
        if missing:
            raise InvariantError(f"{what}: no value for vertices {missing}")
        extra = [k for k in data if k not in labels]
        if extra:
            raise InvariantError(f"{what}: unknown vertices {extra}")
        return np.array([float(data[v]) for v in labels])
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(len(labels), float(arr))
    if arr.shape != (len(labels),):
        raise InvariantError(f"{what}: expected {len(labels)} values, got shape {arr.shape}")
    return arr.copy()


@dataclass(frozen=True, eq=False)
class ExponentField:
    """p: vertex -> [2, inf).  Extrema are cached over S and over all of S-bar."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        vals = _vertex_array(self.graph, self.values, self.graph.vertices, "p")
        bad = [v for v, pv in zip(self.graph.vertices, vals) if pv < 2.0]
        if bad:
            raise InvariantError(
                f"p({bad[0]}) = {vals[self.graph.index_of(bad[0])]:g} violates p: S-bar -> [2, inf)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, graph: Graph, p: float) -> "ExponentField":
        return cls(graph, np.full(graph.n_vertices, float(p)))

    @property
    def p_minus(self) -> float:
        return float(self.values[: self.graph.n_interior].min())

    @property
    def p_plus(self) -> float:
        return float(self.values[: self.graph.n_interior].max())

    @property
    def pbar_minus(self) -> float:
        return float(self.values.min())

    @property
    def pbar_plus(self) -> float:
        return float(self.values.max())

    def interior(self) -> np.ndarray:
        return self.values[: self.graph.n_interior]


@dataclass(frozen=True, eq=False)
class Potential:
    """q: interior vertex -> (0, inf)."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        vals = _vertex_array(self.graph, self.values, self.graph.interior, "q")
        bad = [v for v, qv in zip(self.graph.interior, vals) if qv <= 0.0]
        if bad:
            raise InvariantError(
                f"q({bad[0]}) <= 0 violates q: S -> (0, inf)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, graph: Graph, q: float) -> "Potential":
        return cls(graph, np.full(graph.n_interior, float(q)))

    @property
    def q_minus(self) -> float:
        return float(self.values.min())

    @property
    def q_plus(self) -> float:
        return float(self.values.max())


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
        labels = self.graph.interior
        for name in ("m1", "m2", "phi1", "phi2", "psi1", "psi2"):
            arr = _vertex_array(self.graph, getattr(self, name), labels, name)
            lo = 2.0 if name in ("m1", "m2") else 0.0
            if name in ("m1", "m2"):
                if np.any(arr < lo):
                    raise InvariantError(f"{name} must be >= 2 everywhere")
            elif np.any(arr <= 0.0):
                raise InvariantError(f"{name} must be strictly positive")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


class Nonlinearity:
    """Base class: f(x, t) for interior x and t >= 0, plus its primitive F.

    A subclass keeps its per-vertex parameter arrays in ``_params``, writes f
    once as the vectorized ``_rate(i, t)`` and F at most once as a closed-form
    ``_primitive(i, t)``; otherwise F comes from ``panel_quadrature``.  ``i``
    is a vertex index or an index array broadcast against the points, and
    ``i = None`` is the whole interior (``rate_vector``, ``primitive_vector``,
    ``slope_vector``).  The slope d_t f is a difference quotient of ``_rate``
    unless a subclass writes it in closed form.
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
        return panel_quadrature(self._rate, np.arange(len(t)) if i is None else i, t)

    # -- vector evaluation over the interior ------------------------------

    def rate_vector(self, t: np.ndarray) -> np.ndarray:
        return self._rate(None, t)

    def primitive_vector(self, t: np.ndarray) -> np.ndarray:
        return self._primitive(None, t)

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
        labels = graph.interior
        self.phi = _vertex_array(graph, phi, labels, "phi")
        self.m = _vertex_array(graph, m, labels, "m")
        self.psi = _vertex_array(graph, psi, labels, "psi")
        if np.any(self.m < 2.0):
            raise InvariantError("m must be >= 2 everywhere")
        if np.any(self.phi < 0.0) or np.any(self.psi <= 0.0):
            raise InvariantError("need phi >= 0 and psi > 0")
        envelope = None
        if np.all(self.phi > 0.0):
            envelope = GrowthEnvelope(
                graph, m1=self.m, m2=self.m, phi1=self.phi, phi2=self.phi,
                psi1=self.psi, psi2=self.psi,
            )
        super().__init__(graph, envelope)
        self._params = (self.phi, self.m, self.psi)

    def _rate(self, i, t):
        phi, m, psi = self._at(i)
        return phi * t ** (m - 1.0) + psi

    def _primitive(self, i, t):
        phi, m, psi = self._at(i)
        return phi / m * t ** m + psi * t

    def slope_vector(self, t):
        phi, m, _ = self._params
        return phi * (m - 1.0) * t ** (m - 2.0)


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
        labels = graph.interior
        self.m = _vertex_array(graph, m, labels, "m")
        self.phi = _vertex_array(graph, phi, labels, "phi")
        self.psi = _vertex_array(graph, psi, labels, "psi")
        if np.any(self.m < 2.0):
            raise InvariantError("m must be >= 2 everywhere")
        if np.any(self.phi <= 0.0) or np.any(self.psi <= 0.0):
            raise InvariantError("need phi > 0 and psi > 0")
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


def default_envelope_grid(scale: float = 1.0, points: int = 512) -> np.ndarray:
    grid = np.linspace(0.0, 10.0 * (1.0 + scale), points)
    grid[0] = 0.0
    return grid


def check_envelope(n: Nonlinearity, grid=None) -> EnvelopeReport:
    """Verify the declared growth envelope of ``n`` on a nonnegative grid.

    The pointwise bounds on f are checked at every grid point; the integrated
    bounds on F (which follow from the pointwise ones) are spot-checked on a
    coarser subgrid, vectorized over 8 points per call, since F may require
    quadrature.
    """
    if n.envelope is None:
        raise DomainError("nonlinearity declares no growth envelope")
    env = n.envelope
    grid = default_envelope_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty grid")
    if np.any(grid < 0):
        raise DomainError("grid points must be >= 0")
    report = EnvelopeReport(grid=grid)
    f_slack = 1e-12
    F_slack = 1e-8  # far above the quadrature tolerance (1e-10 absolute, 1e-13 relative)
    sub = grid[::8] if grid.size > 16 else grid
    for i, x in enumerate(n.graph.interior):
        fvals = n._rate(i, grid)
        lower = env.psi1[i] + env.phi1[i] * grid ** (env.m1[i] - 1.0)
        upper = env.phi2[i] * grid ** (env.m2[i] - 1.0) + env.psi2[i]
        for t, fv, lo, up in zip(grid, fvals, lower, upper):
            if fv < lo - f_slack * (1.0 + abs(lo)):
                report.violations.append(EnvelopeViolation("f_lower", x, float(t), float(fv), float(lo)))
            if fv > up + f_slack * (1.0 + abs(up)):
                report.violations.append(EnvelopeViolation("f_upper", x, float(t), float(fv), float(up)))
        # Slices of 8 points: a call over all of ``sub`` would hold every
        # panel of every point at once (~0.3 MB of arrays on the default grid).
        Fvals = np.concatenate([n._primitive(i, sub[k:k + 8]) for k in range(0, sub.size, 8)])
        lower = env.psi1[i] * sub + env.phi1[i] / env.m1[i] * sub ** env.m1[i]
        upper = env.phi2[i] / env.m2[i] * sub ** env.m2[i] + env.psi2[i] * sub
        for t, Fv, lo, up in zip(sub, Fvals, lower, upper):
            if Fv < lo - F_slack * (1.0 + abs(lo)):
                report.violations.append(EnvelopeViolation("F_lower", x, float(t), float(Fv), float(lo)))
            if Fv > up + F_slack * (1.0 + abs(up)):
                report.violations.append(EnvelopeViolation("F_upper", x, float(t), float(Fv), float(up)))
    return report


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
    g, p, q, env = spec.graph, spec.p, spec.q, spec.f.envelope
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
        p_minus=p.p_minus, p_plus=p.p_plus,
        pbar_minus=p.pbar_minus, pbar_plus=p.pbar_plus,
        q_minus=q.q_minus, q_plus=q.q_plus,
        **kw,
    )
