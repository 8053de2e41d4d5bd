"""Deterministic machine-readable reports (JSON and CSV).

Reports are plain dicts written by the standard ``json`` module.  Each float
is written as Python's shortest repr that reads back to the same double,
and a non-finite float as ``null``; dictionaries keep insertion order, and
nothing time- or host-dependent is ever emitted, so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

from . import __version__
from .bounds import LambdaThresholds
from .calculus import VertexFunction
from .errors import DegenerateExponent, GammaTooSmall
from .model import InstanceConstants, ProblemSpec, instance_constants
from .solver import CriticalPoint, PositivityReport, SolveReport


def format_float(x: float) -> str:
    # float() first: numpy 2 reprs an np.float64 as "np.float64(0.05)".
    return repr(float(x)) if math.isfinite(x) else "null"


def _nulls(obj: Any) -> Any:
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nulls(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulls(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    return json.dumps(_nulls(obj), indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def csv_cell(x: Any) -> str:
    if isinstance(x, float):
        return format_float(x)
    return str(x)


# -- report sections ----------------------------------------------------------

def tool_section() -> dict:
    return {"name": "plap", "version": __version__}


def constants_section(c: InstanceConstants) -> dict:
    # Declaration order; the envelope fields are None when f has no envelope.
    return {k: v for k, v in dataclasses.asdict(c).items() if v is not None}


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
    th_sec = thresholds_section(rep.thresholds, spec.lam, gamma)
    doc: dict[str, Any] = {
        "tool": tool_section(),
        "command": "solve",
        "seed": rep.seed,
        "lambda": spec.lam,
        "instance": constants_section(instance_constants(spec)),
        "thresholds": th_sec,
        "regime": rep.regime.sorted_names(),
        "uniqueness": dataclasses.asdict(rep.uniqueness),
        "ball_convexity": dataclasses.asdict(rep.ball_convexity),
        "solutions": [solution_section(pt) for pt in rep.solutions],
        "sphere_lower_bound": rep.sphere_lower_bound,
        "kkt": None if rep.kkt is None else dataclasses.asdict(rep.kkt),
        "diagnostics": {"notes": list(rep.notes)},
    }
    cmp_sec = reference_comparison(reference, th_sec)
    if cmp_sec is not None:
        doc["reference_comparison"] = cmp_sec
    return doc


def certificate_document(u: VertexFunction, residual: float | None,
                         positivity: PositivityReport, tol: float) -> dict:
    passed = (positivity.passed and residual is not None and residual <= tol)
    return {
        "tool": tool_section(),
        "command": "certify",
        "tolerance": tol,
        "residual_original": residual,
        "positivity": dataclasses.asdict(positivity),
        "norm": math.hypot(*u.values),
        "passed": passed,
    }
