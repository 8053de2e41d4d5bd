"""Deterministic machine-readable reports (JSON and CSV).

Floats are serialized with 17 significant digits so every report value
round-trips losslessly; dictionaries keep insertion order, and nothing
time- or host-dependent is ever emitted, so identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

import math
from typing import Any

from . import __version__
from .bounds import LambdaThresholds
from .calculus import VertexFunction
from .errors import DegenerateExponent, GammaTooSmall
from .model import InstanceConstants, ProblemSpec
from .solver import CriticalPoint, SolveReport


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{int(x)}.0"
    return format(x, ".17g")


def dumps(obj: Any, indent: int = 2) -> str:
    out: list[str] = []
    _write(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str], level: int, indent: int) -> None:
    pad = " " * (indent * (level + 1))
    closepad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{_escape(str(k))}: ")
            _write(v, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{closepad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _write(v, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{closepad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def csv_cell(x: Any) -> str:
    if isinstance(x, float):
        return format_float(x)
    return str(x)


# -- report sections ----------------------------------------------------------

def tool_section() -> dict:
    return {"name": "plap", "version": __version__}


def constants_section(c: InstanceConstants) -> dict:
    sec = {
        "n_interior": c.n_interior,
        "n_boundary": c.n_boundary,
        "n_vertices": c.n_vertices,
        "max_weight": c.max_weight,
        "p_minus": c.p_minus,
        "p_plus": c.p_plus,
        "pbar_minus": c.pbar_minus,
        "pbar_plus": c.pbar_plus,
        "q_minus": c.q_minus,
        "q_plus": c.q_plus,
    }
    if c.has_envelope:
        sec.update({
            "m1_minus": c.m1_minus, "m1_plus": c.m1_plus,
            "m2_minus": c.m2_minus, "m2_plus": c.m2_plus,
            "phi1_min": c.phi1_min, "phi2_max": c.phi2_max,
            "psi1_min": c.psi1_min, "psi2_max": c.psi2_max,
        })
    return sec


def thresholds_section(th: LambdaThresholds | None, lam: float,
                       gamma: float | None) -> dict | None:
    if th is None:
        return None
    sec: dict[str, Any] = {
        "lambda1": th.lambda1,
        "lambda2": th.lambda2,
        "gamma0": th.gamma0,
        "omega_radius": th.omega_radius,
    }
    try:
        sec["t0"] = th.t0(lam)
    except DegenerateExponent:
        sec["t0"] = None
    if gamma is not None:
        sec["gamma"] = gamma
        try:
            sec["lambda3"] = th.lambda3(gamma)
        except GammaTooSmall:
            sec["lambda3"] = None
    return sec


def solution_section(pt: CriticalPoint) -> dict:
    return {
        "values": pt.u.as_dict(),
        "J": pt.value,
        "residual_inf": pt.residual_inf,
        "residual_original": pt.residual_orig,
        "norm": pt.norm,
        "positive": pt.positive_on_S,
        "kind": pt.kind,
        "converged": pt.converged,
        "iterations": pt.iterations,
    }


def reference_comparison(reference: dict[str, float] | None,
                         computed: dict | None) -> dict | None:
    """Echo benchmark values from the problem file next to computed ones.

    Informational only; never used as a target or a failure condition.
    """
    if not reference or not computed:
        return None
    rows = {}
    for key, ref in reference.items():
        got = computed.get(key)
        entry: dict[str, Any] = {"reference": ref, "computed": got}
        if isinstance(got, float) and got != 0:
            entry["ratio"] = ref / got
        rows[key] = entry
    return {"note": "non-binding benchmark values from the problem file", "values": rows}


def solve_report_document(spec: ProblemSpec, rep: SolveReport, gamma: float | None,
                          reference: dict[str, float] | None = None) -> dict:
    from .model import instance_constants

    th_sec = thresholds_section(rep.thresholds, spec.lam, gamma)
    doc: dict[str, Any] = {
        "tool": tool_section(),
        "command": "solve",
        "seed": rep.seed,
        "lambda": spec.lam,
        "instance": constants_section(instance_constants(spec)),
        "thresholds": th_sec,
        "regime": rep.regime.sorted_names(),
        "uniqueness": {"certified": rep.uniqueness.certified,
                       "reason": rep.uniqueness.reason},
        "solutions": [solution_section(pt) for pt in rep.solutions],
        "sphere_lower_bound": rep.sphere_lower_bound,
        "kkt": None,
        "diagnostics": {"notes": list(rep.notes)},
    }
    if rep.kkt is not None:
        doc["kkt"] = {
            "sigma": rep.kkt.sigma,
            "theta": rep.kkt.theta,
            "kappa": rep.kkt.kappa,
            "norm_u": rep.kkt.norm_u,
            "stationarity_inf": rep.kkt.stationarity_inf,
        }
    cmp_sec = reference_comparison(reference, th_sec)
    if cmp_sec is not None:
        doc["reference_comparison"] = cmp_sec
    return doc


def certificate_document(spec: ProblemSpec, u: VertexFunction,
                         residual: float | None, positivity, tol: float) -> dict:
    passed = (positivity.passed and residual is not None and residual <= tol)
    return {
        "tool": tool_section(),
        "command": "certify",
        "tolerance": tol,
        "residual_original": residual,
        "positivity": {
            "boundary_zero": positivity.boundary_zero,
            "strictly_positive": positivity.strictly_positive,
            "negative_part_zero": positivity.negative_part_zero,
            "min_interior": positivity.min_interior,
            "message": positivity.message,
        },
        "norm": float(math.sqrt(sum(x * x for x in u.values))),
        "passed": passed,
    }
