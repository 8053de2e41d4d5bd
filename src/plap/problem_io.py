"""Problem files: strict JSON parsing, validation, and serialization.

A problem file has the sections

    graph         {interior, boundary, edges: [{u, v, w}, ...]}
    p             number or {vertex: value} over all vertices
    q             number or {vertex: value} over the interior
    nonlinearity  {kind, parameters, envelope?}
    lambda        number > 0

with optional data-only ``reference_thresholds`` (benchmark values echoed
back by the bounds command, never used in computations).  Unknown keys are
rejected at every level, and so are the non-finite numbers (NaN, Infinity)
that ``json`` accepts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .errors import InvariantError, ParseError, PlapError, SchemaError
from .graphs import Graph, build_graph
from .model import (
    ArctanPower,
    ExponentField,
    GrowthEnvelope,
    Nonlinearity,
    Potential,
    PowerPlus,
    ProblemSpec,
    check_envelope,
)

_TOP_KEYS = {"graph", "p", "q", "nonlinearity", "lambda", "reference_thresholds"}
_GRAPH_KEYS = {"interior", "boundary", "edges"}
_EDGE_KEYS = {"u", "v", "w"}
_NL_KEYS = {"kind", "parameters", "envelope"}
_ENV_KEYS = {"m1", "m2", "phi1", "phi2", "psi1", "psi2"}
_PARAM_KEYS = {"power_plus": {"phi", "m", "psi"}, "arctan_power": {"m", "phi", "psi"}}


@dataclass
class ProblemDocument:
    spec: ProblemSpec
    reference_thresholds: dict[str, float] | None
    path: str


def _require_keys(obj: Mapping[str, Any], allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _finite_numbers(values: list) -> bool:
    """Whether ``_number`` accepts every value, checked in a few C-level calls."""
    try:
        return set(map(type, values)) <= {int, float} and math.isfinite(sum(values))
    except OverflowError:  # an int beyond the float range
        return False


def _field(value: Any, where: str):
    """A per-vertex field: a single number or a {vertex: number} map."""
    if isinstance(value, Mapping):
        return value if _finite_numbers(list(value.values())) else {
            str(k): _number(v, f"{where}[{k}]") for k, v in value.items()}
    return _number(value, where)


def _parse_graph(obj: Any) -> Graph:
    _require_keys(obj, _GRAPH_KEYS, _GRAPH_KEYS, "graph")
    interior = obj["interior"]
    boundary = obj["boundary"]
    for name, seq in (("interior", interior), ("boundary", boundary)):
        if not isinstance(seq, list) or not all(isinstance(v, str) for v in seq):
            raise SchemaError(f"graph.{name}: expected a list of vertex labels")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise SchemaError("graph.edges: expected a list")
    if not (all(type(e) is dict and e.keys() == _EDGE_KEYS for e in edges)
            and _finite_numbers([e["w"] for e in edges])):
        for k, e in enumerate(edges):  # to raise the first fault's message
            _require_keys(e, _EDGE_KEYS, _EDGE_KEYS, f"graph.edges[{k}]")
            _number(e["w"], f"graph.edges[{k}].w")
    return build_graph(interior, boundary, [(str(e["u"]), str(e["v"]), e["w"]) for e in edges])


def _parse_nonlinearity(obj: Any, graph: Graph) -> Nonlinearity:
    _require_keys(obj, _NL_KEYS, {"kind", "parameters"}, "nonlinearity")
    kind = obj["kind"]
    if kind not in _PARAM_KEYS:
        raise SchemaError(
            f"nonlinearity.kind: unknown kind {kind!r}; expected one of {sorted(_PARAM_KEYS)}"
        )
    params = obj["parameters"]
    _require_keys(params, _PARAM_KEYS[kind], _PARAM_KEYS[kind], "nonlinearity.parameters")
    fields = {k: _field(v, f"nonlinearity.parameters.{k}") for k, v in params.items()}
    if kind == "power_plus":
        nl: Nonlinearity = PowerPlus(graph, phi=fields["phi"], m=fields["m"], psi=fields["psi"])
    else:
        nl = ArctanPower(graph, m=fields["m"], phi=fields["phi"], psi=fields["psi"])
    if "envelope" in obj:
        env = obj["envelope"]
        _require_keys(env, _ENV_KEYS, _ENV_KEYS, "nonlinearity.envelope")
        nl.envelope = GrowthEnvelope(
            graph, **{k: _field(env[k], f"nonlinearity.envelope.{k}") for k in _ENV_KEYS}
        )
    return nl


def parse_document(text: str, path: str = "<memory>") -> ProblemDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _require_keys(raw, _TOP_KEYS, {"graph", "p", "q", "nonlinearity", "lambda"}, "problem")
    graph = _parse_graph(raw["graph"])
    p = ExponentField(graph, _field(raw["p"], "p"))
    q = Potential(graph, _field(raw["q"], "q"))
    nl = _parse_nonlinearity(raw["nonlinearity"], graph)
    lam = _number(raw["lambda"], "lambda")
    if nl.envelope is not None:
        report = check_envelope(nl)
        if not report.passed:
            v = report.violations[0]
            raise InvariantError(
                f"growth envelope violated: f({v.vertex}, {v.t:g}) = {v.value:.6g} "
                f"vs bound {v.bound:.6g} ({v.which})"
            )
    spec = ProblemSpec(graph=graph, p=p, q=q, f=nl, lam=lam)
    ref = None
    if "reference_thresholds" in raw:
        refobj = raw["reference_thresholds"]
        if not isinstance(refobj, Mapping):
            raise SchemaError("reference_thresholds: expected an object")
        ref = {str(k): _number(v, f"reference_thresholds.{k}") for k, v in refobj.items()}
    return ProblemDocument(spec=spec, reference_thresholds=ref, path=path)


def load_problem(path: str | Path) -> ProblemDocument:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from None
    return parse_document(text, str(p))


def parse_problem(path: str | Path) -> ProblemSpec:
    """Load, validate, and return the problem instance in a file."""
    return load_problem(path).spec


def spec_to_document(spec: ProblemSpec, reference: dict[str, float] | None = None) -> dict:
    """Problem spec back to the file layout (per-vertex maps, full precision)."""
    g = spec.graph
    labels = g.vertices
    edges = [{"u": labels[i], "v": labels[j], "w": wv}
             for i, j, wv in zip(*(a.tolist() for a in g.edges))]
    nl = spec.f
    doc: dict[str, Any] = {
        "graph": {
            "interior": list(g.interior),
            "boundary": list(g.boundary),
            "edges": edges,
        },
        "p": {v: float(spec.p.values[i]) for i, v in enumerate(g.vertices)},
        "q": {v: float(spec.q.values[i]) for i, v in enumerate(g.interior)},
        "nonlinearity": {
            "kind": nl.kind,
            "parameters": {
                k: {v: float(getattr(nl, k)[i]) for i, v in enumerate(g.interior)}
                for k in sorted(_PARAM_KEYS[nl.kind])
            },
        },
        "lambda": spec.lam,
    }
    if reference:
        doc["reference_thresholds"] = dict(reference)
    return doc


def parse_solution(path: str | Path, graph: Graph) -> dict[str, float]:
    """Read a candidate solution file: {"u": {vertex: value}}."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _require_keys(raw, {"u"}, {"u"}, "solution")
    values = raw["u"]
    if not isinstance(values, Mapping):
        raise SchemaError("solution.u: expected an object {vertex: value}")
    out = {}
    for k, v in values.items():
        if k not in graph.index:
            raise SchemaError(f"solution.u: unknown vertex {k!r}")
        out[str(k)] = _number(v, f"solution.u[{k}]")
    missing = [v for v in graph.interior if v not in out]
    if missing:
        raise SchemaError(f"solution.u: missing interior vertices {missing}")
    return out


def fixture_path(name: str) -> Path:
    """Location of a bundled example problem file."""
    base = resources.files("plap") / "fixtures" / name
    with resources.as_file(base) as p:
        if not p.exists():
            raise PlapError(f"no bundled fixture named {name!r}")
        return Path(p)
