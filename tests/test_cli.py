import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from plap import (
    DirichletFunction,
    fixture_path,
    load_problem,
    parse_problem,
    residual_original,
    spec_to_document,
    verify_positive,
)
from plap.cli import main
from plap.errors import InvariantError, ParseError, SchemaError
from plap.model import InstanceConstants
from plap.problem_io import parse_document
from plap.reporting import dumps, format_float


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def cubic_file():
    return str(fixture_path("cubic_path.json"))


def linear_file():
    return str(fixture_path("linear_path.json"))


def triangle_file():
    return str(fixture_path("triangle_pendant.json"))


# -- parsing ------------------------------------------------------------------

def test_fixture_files_parse():
    for name in ("cubic_path.json", "linear_path.json",
                 "triangle_pendant.json", "triangle_pendant_steep.json"):
        spec = parse_problem(fixture_path(name))
        assert spec.lam > 0


def test_parse_round_trip_identity():
    doc = load_problem(cubic_file())
    text = dumps(spec_to_document(doc.spec))
    doc2 = parse_document(text)
    a, b = doc.spec, doc2.spec
    assert a.graph.vertices == b.graph.vertices
    assert all(np.array_equal(x, y) for x, y in zip(a.graph.ordered_pairs, b.graph.ordered_pairs))
    assert np.array_equal(a.p.values, b.p.values)
    assert np.array_equal(a.q.values, b.q.values)
    assert a.f.kind == b.f.kind
    assert np.array_equal(a.f.m, b.f.m)
    assert np.array_equal(a.f.phi, b.f.phi)
    assert np.array_equal(a.f.psi, b.f.psi)
    assert a.lam == b.lam


def base_document():
    return json.loads(open(cubic_file()).read())


@pytest.mark.parametrize("path, value, missing", [
    (("p",), {"v0": 2.0, "v1": 2.0}, "v2"),
    (("q",), {}, "v1"),
    (("nonlinearity", "parameters", "psi"), {}, "v1"),
    (("nonlinearity", "envelope", "phi1"), {}, "v1"),
], ids=["p", "q", "psi", "phi1"])
def test_missing_q_entry_rejected(tmp_path, path, value, missing):
    # Every per-vertex map is checked once, by the field it builds.
    doc = base_document()
    doc["nonlinearity"]["envelope"] = {"m1": 4.0, "m2": 4.0, "phi1": 1.0, "phi2": 1.0,
                                       "psi1": 0.1, "psi2": 0.1}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InvariantError) as exc:
        parse_problem(f)
    assert str(exc.value) == f"{path[-1]}: no value for vertices [{missing!r}]"


def test_unknown_key_rejected(tmp_path):
    doc = base_document()
    doc["extra"] = 1
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_problem(f)


def test_small_exponent_rejected(tmp_path):
    doc = base_document()
    doc["p"] = 1.5
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InvariantError, match="violates p"):
        parse_problem(f)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_rejected(tmp_path, token):
    # Python's json accepts these tokens; a problem file must not.
    doc = base_document()
    doc["q"] = "Q"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc).replace('"Q"', token))
    with pytest.raises(SchemaError, match="q: expected a finite number"):
        parse_problem(f)


def test_nan_lambda_file_exits_2(capsys, tmp_path):
    doc = base_document()
    doc["lambda"] = float("nan")
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))  # json writes the NaN token
    code, out, err = run_cli(["solve", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert "lambda: expected a finite number" in err


def test_malformed_json_positions(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"graph": [,]}')
    with pytest.raises(ParseError, match="line 1"):
        parse_problem(f)


def test_missing_file():
    with pytest.raises(ParseError):
        parse_problem("/nonexistent/problem.json")


# -- float formatting ---------------------------------------------------------

def test_float_format_round_trips():
    rng = np.random.default_rng(51)
    values = list(rng.uniform(-1e6, 1e6, 200)) + [0.1, 2.0, 1e-300, 7.896e13]
    for v in values:
        s = format_float(float(v))
        assert float(json.loads(s)) == float(v)


@pytest.mark.parametrize("x", [-0.0, 1e16, 5.5e16])
def test_dumps_float_reads_back_as_the_same_float(x):
    # -0.0 keeps its sign, and a float from 1e16 up is not written as a JSON integer.
    back = json.loads(dumps({"x": x}))["x"]
    assert type(back) is float
    assert math.copysign(1.0, back) == math.copysign(1.0, x) and back == x


def test_non_finite_floats_are_written_as_null():
    nan, inf = float("nan"), float("inf")
    doc = {"a": nan, "b": [inf, -inf, 1.0], "c": {"d": (nan,)}}
    assert json.loads(dumps(doc)) == {"a": None, "b": [None, None, 1.0], "c": {"d": [None]}}
    assert [format_float(x) for x in (nan, inf, -inf)] == ["null"] * 3


def _reject_constant(token):
    raise AssertionError(f"{token} in a report")


@pytest.mark.parametrize("name", ["cubic_path.json", "linear_path.json",
                                  "triangle_pendant.json", "triangle_pendant_steep.json"])
def test_fixture_reports_have_no_non_finite_tokens(capsys, tmp_path, name):
    path = str(fixture_path(name))
    code, solved, _ = run_cli(["solve", path, "--seed", "0"], capsys)
    assert code == 0
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": json.loads(solved)["solutions"][0]["values"]}))
    outs = [solved] + [run_cli(args, capsys)[1] for args in
                       (["validate", path], ["bounds", path],
                        ["certify", path, "--solution", str(sol)])]
    for out in outs:
        json.loads(out, parse_constant=_reject_constant)


# -- commands -----------------------------------------------------------------

def test_validate_command(capsys):
    code, out, _ = run_cli(["validate", cubic_file()], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["graph"]["n_vertices"] == 3


def test_bounds_command_gamma(capsys):
    code, out, _ = run_cli(["bounds", triangle_file(), "--gamma", "14.7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds"]["gamma0"] == pytest.approx(14.696938, abs=5e-4)
    assert doc["thresholds"]["lambda3"] is not None
    assert "Ekeland" in doc["regime"]
    assert "reference_comparison" in doc
    assert doc["reference_comparison"]["values"]["lambda2"]["computed"] > 0


def test_bounds_gamma_too_small(capsys):
    code, out, err = run_cli(["bounds", triangle_file(), "--gamma", "2.0"], capsys)
    assert code == 3
    assert "gamma0" in err


@pytest.mark.parametrize("command", ["bounds", "solve"])
def test_instance_section_lists_constants_in_declaration_order(capsys, command):
    names = [f.name for f in dataclasses.fields(InstanceConstants)]
    code, out, _ = run_cli([command, cubic_file()], capsys)
    assert code == 0
    assert list(json.loads(out)["instance"]) == names
    # phi = 0 leaves f without a growth envelope: only the ten graph,
    # exponent and potential constants are reported.
    code, out, _ = run_cli([command, linear_file()], capsys)
    assert code == 0
    assert list(json.loads(out)["instance"]) == names[:10]


def test_solve_command(capsys):
    code, out, _ = run_cli(["solve", cubic_file(), "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 2
    for sol in doc["solutions"]:
        assert sol["positive"] is True
        assert sol["residual_original"] <= 1e-8
    assert doc["seed"] == 1


def test_solve_steep_fixture_end_to_end(capsys):
    path = str(fixture_path("triangle_pendant_steep.json"))
    code, out, _ = run_cli(["solve", path], capsys)
    assert code == 0
    doc = json.loads(out)
    spec = load_problem(path).spec
    assert any(sol["kind"] == "Minimizer" for sol in doc["solutions"])
    # Re-certify from the reported values alone.  The mountain pass may end
    # uncertified here; its note in the diagnostics is allowed.
    for sol in doc["solutions"]:
        u = DirichletFunction.from_dict(spec.graph, sol["values"])
        assert residual_original(spec, u) <= 1e-8
        assert verify_positive(spec, u).passed


def test_certify_command_pass(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": 1.0 / 3.0}}))
    code, out, _ = run_cli(["certify", linear_file(), "--solution", str(sol)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["residual_original"] <= 1e-10


def test_certify_command_fails_on_negative(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": -1.0}}))
    code, out, _ = run_cli(["certify", linear_file(), "--solution", str(sol)], capsys)
    assert code == 4
    doc = json.loads(out)
    assert doc["passed"] is False


def test_certify_reports_nonzero_boundary_as_failed(capsys, tmp_path):
    # A nonzero boundary value is a failed certificate, not a parse error.
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": 0.3333333333333333, "v0": 0.5}}))
    code, out, _ = run_cli(["certify", linear_file(), "--solution", str(sol)], capsys)
    assert code == 4
    doc = json.loads(out)
    assert doc["positivity"]["boundary_zero"] is False
    assert doc["passed"] is False
    assert doc["residual_original"] > 0.1  # the boundary value enters the operator


def test_certify_norm_does_not_overflow(capsys, tmp_path):
    # The norm 1e300 is a double, though the sum of squares behind it is not.
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": 1e300}}))
    code, out, _ = run_cli(["certify", cubic_file(), "--solution", str(sol)], capsys)
    assert code == 4
    assert json.loads(out)["norm"] == 1e300


def test_t0_is_one_where_its_power_overflows(capsys, tmp_path):
    # p = 2 against m = 2.0000001: the exponent 1/(p^- - m1^+) is -1e7, and
    # the closed-form power overflows a double; t0 = min(1, +inf) = 1.
    doc = json.loads(fixture_path("cubic_path.json").read_text())
    doc["nonlinearity"]["parameters"]["m"] = 2.0000001
    path = tmp_path / "near_degenerate.json"
    path.write_text(json.dumps(doc))
    for command in ("bounds", "solve"):
        code, out, _ = run_cli([command, str(path)], capsys)
        assert code == 0
        assert json.loads(out)["thresholds"]["t0"] == 1.0


def test_solve_with_a_huge_potential_does_not_overflow_the_ball_projection(capsys, tmp_path):
    # At q = 1e300 the gradient in a ball restart is about 1e300, so the sum
    # of squares of v - g overflows a double though its norm does not.
    doc = json.loads(fixture_path("cubic_path.json").read_text())
    doc["q"], doc["lambda"] = 1e300, 1e-30
    path = tmp_path / "huge_potential.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["solutions"][0]["kind"] == "Minimizer"


def test_solve_where_two_energy_terms_overflow_warns_nothing(tmp_path):
    # A restart overshoots until the Dirichlet and source terms of J are
    # both inf; J is then NaN, which the descent rejects, with no warning.
    doc = {
        "graph": {"interior": ["w0"], "boundary": ["w1", "w2"],
                  "edges": [{"u": "w0", "v": "w1", "w": 1.73695947},
                            {"u": "w0", "v": "w2", "w": 1.78036166},
                            {"u": "w1", "v": "w2", "w": 2.19686217}]},
        "p": {"w0": 2.00105724, "w1": 5.91786639, "w2": 4.05260944},
        "q": {"w0": 0.70333885},
        "nonlinearity": {"kind": "power_plus",
                         "parameters": {"phi": 1.38761819, "m": 6.29892013, "psi": 1.01307716}},
        "lambda": 1.3681456242109884,
    }
    path = tmp_path / "inf_minus_inf.json"
    path.write_text(json.dumps(doc))
    args = ["-m", "plap", "solve", str(path)]
    plain = subprocess.run([sys.executable] + args, capture_output=True, text=True)
    strict = subprocess.run([sys.executable, "-W", "error::RuntimeWarning"] + args,
                            capture_output=True, text=True)
    assert strict.stderr == ""
    assert (strict.returncode, strict.stdout) == (plain.returncode, plain.stdout)


def test_certify_rejects_unknown_vertex(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": 0.3, "zz": 1.0}}))
    code, _, err = run_cli(["certify", linear_file(), "--solution", str(sol)], capsys)
    assert code == 2
    assert "unknown vertex" in err


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{")
    code, _, err = run_cli(["validate", str(f)], capsys)
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(["sweep", cubic_file(), "--lambda-min", "0.1",
                          "--lambda-max", "0.05", "--steps", "3"], capsys)
    assert code == 1


@pytest.mark.parametrize("lo, hi", [("nan", "1.0"), ("0.1", "nan"), ("0.1", "inf"),
                                    ("inf", "inf")])
def test_sweep_rejects_non_finite_lambda_bounds(capsys, lo, hi):
    code, out, err = run_cli(["sweep", cubic_file(), "--lambda-min", lo,
                              "--lambda-max", hi, "--steps", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "--lambda-min" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_solve_rejects_non_finite_tolerance(capsys, tol):
    code, out, err = run_cli(["solve", cubic_file(), "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert "tolerances must be finite" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_certify_rejects_non_finite_tolerance(capsys, tmp_path, tol):
    # u(v1) = 5 is far from a solution (residual about 35); an infinite
    # tolerance used to pass it, and a negative one failed it as a
    # certificate (exit 4) instead of a usage error.
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"u": {"v1": 5.0}}))
    code, out, err = run_cli(["certify", cubic_file(), "--solution", str(sol), "--tol", tol],
                             capsys)
    assert code == 2
    assert out == ""
    message = "--tol must be nonnegative" if tol == "-1" else "--tol must be a finite number"
    assert err.startswith("plap: ") and message in err


@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_solve_rejects_non_finite_gamma(capsys, gamma):
    code, out, err = run_cli(["solve", cubic_file(), "--gamma", gamma], capsys)
    assert code == 2
    assert out == ""
    assert "--gamma must be a finite number" in err


@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_bounds_rejects_non_finite_gamma(capsys, gamma):
    code, out, err = run_cli(["bounds", triangle_file(), "--gamma", gamma], capsys)
    assert code == 2
    assert out == ""
    assert "--gamma must be a finite number" in err


def test_unknown_command_usage(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_sweep_rows_and_grid(capsys):
    code, out, _ = run_cli(["sweep", cubic_file(), "--lambda-min", "0.1",
                            "--lambda-max", "0.4", "--steps", "4", "--seed", "2"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,solutions,min_residual,norms"
    assert len(lines) == 5
    lams = [float(l.split(",")[0]) for l in lines[1:]]
    assert lams == pytest.approx([0.1, 0.2, 0.3, 0.4])  # every grid point, in order
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert all(c == 2 for c in counts)


def test_reports_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "plap", "solve", cubic_file(), "--seed", "3"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_certified_report_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "plap", "solve", linear_file()]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["uniqueness"]["certified"] is True


def test_solve_report_carries_ball_convexity_after_uniqueness(capsys):
    code, out, _ = run_cli(["solve", cubic_file()], capsys)
    assert code == 0
    doc = json.loads(out)
    keys = list(doc)
    assert keys[keys.index("uniqueness") + 1] == "ball_convexity"
    assert doc["ball_convexity"]["certified"] is True
    code, out, _ = run_cli(["solve", triangle_file()], capsys)
    assert json.loads(out)["ball_convexity"] == {
        "certified": False,
        "reason": "nonlinearity kind arctan_power has no closed-form bound on the slope of f",
    }


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("option, value", [("--restarts", "-3"), ("--seed", "-1")],
                         ids=["restarts", "seed"])
def test_negative_option_exit_2(capsys, command, option, value):
    args = [command, cubic_file(), option, value]
    if command == "sweep":
        args += ["--lambda-min", "0.05", "--lambda-max", "1.0", "--steps", "3"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("plap: ")
    assert ("restarts" if option == "--restarts" else "rng_seed") in err


def test_library_and_solve_do_not_import_scipy():
    # The connectivity check is numpy only; importing scipy.sparse.csgraph
    # would add tens of MB of resident memory to every process.
    code = (
        "import contextlib, io, sys\n"
        "import plap, plap.cli\n"
        "g = plap.build_graph(['a'], ['b', 'c'], [('a', 'b', 1.0), ('a', 'c', 1.0)])\n"
        "assert plap.validate_graph(g).passed\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert plap.cli.main(['solve', sys.argv[1], '--seed', '0']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, cubic_file()],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_solve_failure_exit_code(capsys, tmp_path):
    # a steep instance at large lambda where no search is certified
    doc = base_document()
    doc["lambda"] = 1e9
    doc["nonlinearity"]["parameters"]["m"] = 12.0
    f = tmp_path / "hard.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli(["solve", str(f), "--seed", "0", "--restarts", "2"], capsys)
    doc_out = json.loads(out)
    if code == 0:
        assert doc_out["solutions"]
    else:
        assert code == 3
        assert doc_out["solutions"] == []


def test_json_writer_escapes_and_nests():
    doc = {"a\"b": [1, 2.5, None, True, {"x": "line\nbreak"}], "empty": {}, "lst": []}
    text = dumps(doc)
    assert json.loads(text) == doc


def test_fixture_path_unknown_name():
    from plap.errors import PlapError
    with pytest.raises(PlapError):
        fixture_path("no_such_fixture.json")
