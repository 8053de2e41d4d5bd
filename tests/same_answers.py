"""Print one digest line per solve, to compare two versions of the solver.

The solves are the 219 benchmark grids (``direct_grid`` and
``two_solution_grid`` at the ``grid_direct`` and ``grid_two_solution``
workload sizes, seeds 0, 7 and 71), the 600-solve constant-p corpus (the
first 200 draws of ``random_power_spec(default_rng(123), n_max=12,
constant_p=True)``) and the 120-solve per-vertex slice (the first 40 draws of
``random_power_spec(default_rng(123), n_max=12)``, p drawn per vertex), each
draw at 0.5 lambda2, 0.9 lambda2 and its own lambda.
Each line holds the solution kinds, a hash of every solution's point bytes,
J, the iteration counts and the notes, all through the default ``solve``.
Two versions give the same answers when the output does not differ:

    PYTHONPATH=src python tests/same_answers.py > after.txt
    diff before.txt after.txt

A change that is not bit-identical gives the same answers when every line
keeps its kinds and notes.  ``--compare`` prints each line that does not
(before, then after), and counts the lines that differ in bits only (the
point's hash, J or the iteration counts), with the largest relative change
in J among them; it exits 1 when it printed a line:

    PYTHONPATH=src python tests/same_answers.py --compare before.txt after.txt

The last bit of a point depends on the machine's numpy and libm, so compare
outputs made on one machine.  It runs in about 25-30 s on one core of a
2-vCPU Xeon.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import direct_grid, random_power_spec, two_solution_grid  # noqa: E402
from plap import ProblemSpec, instance_constants, lambda_thresholds, solve  # noqa: E402

GRID_DIRECT = ((8, 24), (16, 36))
GRID_TWO_SOLUTION = ((3, 5), (5, 5), (8, 1), (12, 2))
SEEDS = (0, 7, 71)
CORPUS_DRAWS = 200
PER_VERTEX_DRAWS = 40


def digest(spec: ProblemSpec) -> str:
    try:
        rep = solve(spec)
    except Exception as exc:  # a raised error is an answer too
        return f"raised {type(exc).__name__}: {exc}"
    points = hashlib.sha256(b"".join(pt.u.values.tobytes() for pt in rep.solutions))
    return " | ".join([
        ",".join(pt.kind for pt in rep.solutions) or "-",
        points.hexdigest()[:16],
        ",".join(repr(pt.value) for pt in rep.solutions),
        ",".join(str(pt.iterations) for pt in rep.solutions),
        "; ".join(rep.notes),
    ])


def main() -> None:
    for seed in SEEDS:
        for make, plan in ((direct_grid, GRID_DIRECT), (two_solution_grid, GRID_TWO_SOLUTION)):
            for side, count in plan:
                for member in range(count):
                    print(f"{make.__name__}({side}, {seed}, {member}): "
                          f"{digest(make(side, seed, member))}")
    corpus("corpus", CORPUS_DRAWS, constant_p=True)
    corpus("per-vertex", PER_VERTEX_DRAWS, constant_p=False)


def corpus(name: str, draws: int, constant_p: bool) -> None:
    rng = np.random.default_rng(123)
    for k in range(draws):
        spec = random_power_spec(rng, n_max=12, constant_p=constant_p)
        lambda2 = lambda_thresholds(instance_constants(spec)).lambda2
        for label, lam in (("0.5 lambda2", 0.5 * lambda2), ("0.9 lambda2", 0.9 * lambda2),
                           ("own lambda", spec.lam)):
            at = ProblemSpec(spec.graph, spec.p, spec.q, spec.f, lam)
            print(f"{name} {k} at {label}: {digest(at)}")


def _answers(path: str) -> dict[str, list[str]]:
    # label -> [kinds, hash, J, iterations, notes], or [the raised error]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {label: rest.split(" | ", 4) for label, rest in (ln.split(": ", 1) for ln in lines)}


def _rel_change(before: str, after: str) -> float:
    pairs = zip(before.split(","), after.split(",")) if before else ()
    return max((abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
                for a, b in pairs if a != b), default=0.0)


def compare(before: str, after: str) -> int:
    old, new = _answers(before), _answers(after)
    changed = bits = iterations = 0
    largest = 0.0
    for label in dict.fromkeys([*old, *new]):
        a, b = old.get(label), new.get(label)
        if a == b:
            continue
        if a is None or b is None or len(a) != len(b) or (a[0], a[-1]) != (b[0], b[-1]):
            changed += 1
            for sign, fields in (("-", a), ("+", b)):
                print(f"{sign} {label}: " + (" | ".join(fields) if fields else "(missing)"))
            continue
        bits += 1
        iterations += a[3] != b[3]
        largest = max(largest, _rel_change(a[2], b[2]))
    print(f"{len(old)} lines before, {len(new)} after: {changed} differ in kinds or notes, "
          f"{bits} in bits only ({iterations} of them in iteration counts); largest "
          f"relative change in J among those: {largest:.3g}")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(*sys.argv[2:]))
    main()
