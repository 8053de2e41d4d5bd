"""Record the reference outputs that ``tests/test_golden.py`` compares against.

Runs 31 ``plap`` commands in-process: validate, bounds, bounds --gamma 14.7,
solve, solve --seed 0, solve --gamma 14.7 and solve --seed 3 --gamma 14.7 on
each bundled fixture, the 16-step ``cubic_path`` sweep, and certify on the
``cubic_path`` minimizer and on u(v1) = 1e300.  Each command's stdout goes to
``<name>.out``; its argv, exit code and stderr go to ``commands.json``.  Paths
are written with the placeholders ``{fixtures}`` and ``{golden}``.

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
FIXTURES = ("cubic_path", "linear_path", "triangle_pendant", "triangle_pendant_steep")


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
    out["sweep-cubic_path"] = ["sweep", "{fixtures}/cubic_path.json", "--lambda-min", "0.05",
                               "--lambda-max", "1.0", "--steps", "16"]
    for name in ("cubic_path_minimizer", "cubic_path_huge"):
        out[f"certify-{name}"] = ["certify", "{fixtures}/cubic_path.json",
                                  "--solution", f"{{golden}}/{name}.json"]
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


def record() -> None:
    index = {}
    for name, argv in commands().items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        index[name] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN / "commands.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
