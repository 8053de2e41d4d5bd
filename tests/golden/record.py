"""Record the reference outputs that ``tests/test_golden.py`` compares against.

Runs 45 ``plap`` commands in-process: validate, bounds, bounds --gamma 14.7,
solve, solve --seed 0, solve --gamma 14.7 and solve --seed 3 --gamma 14.7 on
each bundled fixture, solve on two seeded 4x4 grids with uniform p (one in
the direct regime, one at lambda2 / 2 with two solutions), bounds and solve
--gamma 14.7 on ``cubic_path`` at lambda = 0.001 (tagged TwoSolutionsKKT),
the 16-step ``cubic_path`` sweep, certify on the ``cubic_path`` minimizer and
on u(v1) = 1e300, and ten failing commands that pin the exit codes 1
(usage), 2 (parse/validation, such as a --gamma of 1e300, where lambda3
overflows) and 3 (solve).
Each command's stdout goes to ``<name>.out``; its argv, exit code and stderr
go to ``commands.json``.  Paths are written with the placeholders
``{fixtures}`` and ``{golden}``.  Named commands are recorded alone, the
others kept as they are:

    PYTHONPATH=src python tests/golden/record.py [name ...]

``--check`` writes nothing: it prints the name of each command (every one,
or those named) whose exit code, stdout or stderr differs byte for byte from
the stored files, and exits 1 when it printed any:

    PYTHONPATH=src python tests/golden/record.py --check [name ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
FIXTURES = ("cubic_path", "linear_path", "triangle_pendant", "triangle_pendant_steep")
GRIDS = ("grid4_direct", "grid4_two_solution")


def commands() -> dict[str, list[str]]:
    out = {}
    for name in FIXTURES:
        path = f"{{fixtures}}/{name}.json"
        out[f"validate-{name}"] = ["validate", path]
        out[f"bounds-{name}"] = ["bounds", path]
        out[f"bounds-{name}-gamma"] = ["bounds", path, "--gamma", "14.7"]
        out[f"solve-{name}"] = ["solve", path]
        out[f"solve-{name}-seed0"] = ["solve", path, "--seed", "0"]
        out[f"solve-{name}-gamma"] = ["solve", path, "--gamma", "14.7"]
        out[f"solve-{name}-seed3-gamma"] = ["solve", path, "--seed", "3", "--gamma", "14.7"]
    for name in GRIDS:
        out[f"solve-{name}"] = ["solve", f"{{golden}}/{name}.json"]
    kkt = "{golden}/cubic_path_kkt.json"
    out["solve-cubic_path_kkt-gamma"] = ["solve", kkt, "--gamma", "14.7"]
    out["bounds-cubic_path_kkt-gamma"] = ["bounds", kkt, "--gamma", "14.7"]
    out["sweep-cubic_path"] = ["sweep", "{fixtures}/cubic_path.json", "--lambda-min", "0.05",
                               "--lambda-max", "1.0", "--steps", "16"]
    for name in ("cubic_path_minimizer", "cubic_path_huge"):
        out[f"certify-{name}"] = ["certify", "{fixtures}/cubic_path.json",
                                  "--solution", f"{{golden}}/{name}.json"]
    cubic = "{fixtures}/cubic_path.json"
    out["sweep-steps0"] = ["sweep", cubic, "--lambda-min", "0.05", "--lambda-max", "1.0",
                           "--steps", "0"]
    out["solve-no-file"] = ["solve"]
    out["solve-missing-file"] = ["solve", "{golden}/missing.json"]
    out["validate-q-missing-vertex"] = ["validate", "{golden}/q_missing_vertex.json"]
    out["certify-negative-tol"] = ["certify", cubic, "--solution",
                                   "{golden}/cubic_path_minimizer.json", "--tol", "-1"]
    out["solve-negative-seed"] = ["solve", cubic, "--seed", "-1"]
    out["bounds-gamma-too-small"] = ["bounds", cubic, "--gamma", "1"]
    out["solve-gamma-too-small"] = ["solve", cubic, "--gamma", "2"]
    out["bounds-gamma-overflow"] = ["bounds", cubic, "--gamma", "1e300"]
    out["solve-gamma-overflow"] = ["solve", cubic, "--gamma", "1e300"]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``plap`` on argv, placeholders
    expanded for the call and restored in the output."""
    from plap import fixture_path
    from plap.cli import main

    places = {"{fixtures}": str(fixture_path("cubic_path.json").parent),
              "{golden}": str(GOLDEN)}
    args = list(argv)
    for key, value in places.items():
        args = [a.replace(key, value) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    texts = [out.getvalue(), err.getvalue()]
    for key, value in places.items():
        texts = [t.replace(value, key) for t in texts]
    return code, texts[0], texts[1]


def _known(names: list[str]) -> None:
    unknown = set(names) - set(commands())
    if unknown:
        raise SystemExit(f"no recorded command named {sorted(unknown)}")


def check(names: list[str]) -> list[str]:
    """The named commands, or all when none is named, whose exit code,
    stdout or stderr differs byte for byte from the stored files."""
    _known(names)
    index = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
    differ = []
    for name, argv in commands().items():
        if names and name not in names:
            continue
        out_path = GOLDEN / f"{name}.out"
        if name not in index or not out_path.exists():
            differ.append(name)
            continue
        code, out, err = run(argv)
        if (code, out.encode("utf-8"), err) != (index[name]["exit"], out_path.read_bytes(),
                                                 index[name]["stderr"]):
            differ.append(name)
    return differ


def record(names: list[str]) -> None:
    """Record the named commands, or every command when none is named."""
    index_path = GOLDEN / "commands.json"
    old = json.loads(index_path.read_text(encoding="utf-8")) if names else {}
    _known(names)
    index = {}
    for name, argv in commands().items():
        if names and name not in names:
            index[name] = old[name]
            continue
        code, out, err = run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        index[name] = {"argv": argv, "exit": code, "stderr": err}
    index_path.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        differ = check(sys.argv[2:])
        for name in differ:
            print(name)
        sys.exit(1 if differ else 0)
    record(sys.argv[1:])
