"""Command-line interface: validate / bounds / solve / sweep / certify.

Reports are UTF-8 JSON on stdout (CSV for sweep).  Exit codes: 0 success,
1 usage, 2 parse/validation failure, 3 solve failure, 4 failed certificate.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .bounds import classify_regime, lambda_thresholds
from .calculus import VertexFunction
from .energy import residual_original
from .errors import (
    DegenerateExponent,
    DomainError,
    GammaTooSmall,
    InvariantError,
    NegativeArgument,
    ParseError,
    PlapError,
    SchemaError,
    SolverError,
)
from .graphs import graph_summary, validate_graph
from .model import ProblemSpec, instance_constants
from .problem_io import load_problem, parse_solution
from .reporting import (
    certificate_document,
    constants_section,
    csv_cell,
    dumps,
    reference_comparison,
    solve_report_document,
    thresholds_section,
    tool_section,
)
from .solver import SolverOptions, solve, verify_positive

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_CERTIFICATE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="plap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a problem file and its graph invariants")
    pv.add_argument("file")

    pb = sub.add_parser("bounds", help="instance constants, thresholds, regime tags")
    pb.add_argument("file")
    pb.add_argument("--gamma", type=float, default=None)

    ps = sub.add_parser("solve", help="search for positive solutions and certify them")
    ps.add_argument("file")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--gamma", type=float, default=None)
    ps.add_argument("--restarts", type=int, default=None)

    pw = sub.add_parser("sweep", help="solve over a lambda grid, CSV output")
    pw.add_argument("file")
    pw.add_argument("--lambda-min", type=float, required=True)
    pw.add_argument("--lambda-max", type=float, required=True)
    pw.add_argument("--steps", type=int, required=True)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--restarts", type=int, default=None)

    pc = sub.add_parser("certify", help="recheck a provided solution against the equation")
    pc.add_argument("file")
    pc.add_argument("--solution", required=True)
    pc.add_argument("--tol", type=float, default=1e-8)
    return parser


def _options(args) -> SolverOptions:
    opts = SolverOptions(rng_seed=getattr(args, "seed", 0) or 0)
    tol = getattr(args, "tol", None)
    if tol is not None:
        opts = replace(opts, grad_tol=tol)
    restarts = getattr(args, "restarts", None)
    if restarts is not None:
        opts = replace(opts, restarts=restarts)
    return opts


def _finite(name: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, got {value}")


def _cmd_validate(args) -> int:
    doc = load_problem(args.file)
    g = doc.spec.graph
    report = validate_graph(g)
    out = {
        "tool": tool_section(),
        "command": "validate",
        "file": args.file,
        "graph": asdict(graph_summary(g)),
        "checks": [asdict(c) for c in report.checks],
        "passed": report.passed,
    }
    sys.stdout.write(dumps(out))
    return EXIT_OK if report.passed else EXIT_PARSE


def _cmd_bounds(args) -> int:
    _finite("--gamma", args.gamma)
    doc = load_problem(args.file)
    spec = doc.spec
    c = instance_constants(spec)
    th = lambda_thresholds(c) if c.has_envelope else None
    if args.gamma is not None and th is not None and args.gamma <= th.gamma0:
        raise GammaTooSmall(
            f"--gamma {args.gamma:g} must exceed gamma0 = {th.gamma0:.6g}"
        )
    regime = classify_regime(c, spec.lam, args.gamma)
    th_sec = thresholds_section(th, spec.lam, args.gamma)
    out = {
        "tool": tool_section(),
        "command": "bounds",
        "lambda": spec.lam,
        "instance": constants_section(c),
        "thresholds": th_sec,
        "regime": regime.sorted_names(),
    }
    cmp_sec = reference_comparison(doc.reference_thresholds, th_sec)
    if cmp_sec is not None:
        out["reference_comparison"] = cmp_sec
    sys.stdout.write(dumps(out))
    return EXIT_OK


def _cmd_solve(args) -> int:
    _finite("--gamma", args.gamma)
    doc = load_problem(args.file)
    opts = _options(args)
    rep = solve(doc.spec, opts, gamma=args.gamma)
    out = solve_report_document(doc.spec, rep, args.gamma, doc.reference_thresholds)
    sys.stdout.write(dumps(out))
    return EXIT_OK if rep.solutions else EXIT_SOLVE


def _solve_one(spec: ProblemSpec, lam: float, opts: SolverOptions):
    inst = ProblemSpec(graph=spec.graph, p=spec.p, q=spec.q, f=spec.f, lam=lam)
    rep = solve(inst, opts)
    residuals = [
        pt.residual_orig if pt.residual_orig is not None else pt.grad_inf
        for pt in rep.solutions
    ]
    return {
        "lambda": lam,
        "count": len(rep.solutions),
        "min_residual": min(residuals) if residuals else None,
        "norms": [pt.norm for pt in rep.solutions],
    }


def _cmd_sweep(args) -> int:
    doc = load_problem(args.file)
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    if not 0 < args.lambda_min <= args.lambda_max < math.inf:
        raise _UsageError("need 0 < --lambda-min <= --lambda-max < inf")
    if args.steps == 1:
        grid = [args.lambda_min]
    else:
        grid = list(np.linspace(args.lambda_min, args.lambda_max, args.steps))
    opts = _options(args)
    rows = [_solve_one(doc.spec, lam, opts) for lam in grid]
    sys.stdout.write("lambda,solutions,min_residual,norms\n")
    for row in rows:
        norms = ";".join(csv_cell(v) for v in row["norms"])
        res = "" if row["min_residual"] is None else csv_cell(row["min_residual"])
        sys.stdout.write(f"{csv_cell(row['lambda'])},{row['count']},{res},{norms}\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    _finite("--tol", args.tol)
    if args.tol < 0:
        raise DomainError(f"--tol must be nonnegative, got {args.tol}")
    doc = load_problem(args.file)
    spec = doc.spec
    values = parse_solution(args.solution, spec.graph)
    u = VertexFunction.from_dict(spec.graph, values, default=0.0)
    positivity = verify_positive(spec, u)
    residual = None
    note = ""
    try:
        residual = residual_original(spec, u)
    except NegativeArgument as exc:
        note = str(exc)
    out = certificate_document(u, residual, positivity, args.tol)
    if note:
        out["note"] = note
    sys.stdout.write(dumps(out))
    return EXIT_OK if out["passed"] else EXIT_CERTIFICATE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"plap: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "certify":
            return _cmd_certify(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        sys.stderr.write(f"plap: {exc}\n")
        return EXIT_USAGE
    except (ParseError, SchemaError, InvariantError) as exc:
        sys.stderr.write(f"plap: {exc}\n")
        return EXIT_PARSE
    except (SolverError, DegenerateExponent, GammaTooSmall) as exc:
        sys.stderr.write(f"plap: {exc}\n")
        return EXIT_SOLVE
    except PlapError as exc:
        sys.stderr.write(f"plap: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
