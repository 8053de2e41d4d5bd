"""Print the set-up times of large problems, to compare two versions.

For each ``direct_grid(side, 0, 0)`` (side 16 to 316) and for a path of
10^5 vertices whose labels and edges come in a shuffled order, one line gives
the best time of up to three runs (as many as fit in about 2 s) of

    build_graph     the graph from its vertex lists and weighted edges
    validate_graph  the re-check of every structural invariant
    spec            ExponentField, Potential, PowerPlus and ProblemSpec
    load_problem    the same instance read back from its JSON file

with p = 3 and f = t^1.5 + 1, the ``grid_direct`` workload's shape:

    PYTHONPATH=src python tests/setup_scale.py [side ...]

Given sides, it prints those grids only, without the path.  It runs in
about 10 s on one core of a 2-vCPU Xeon.  Before connectivity became
min-label hooking, the envelope check one check per distinct parameter row
and the unknown-label check a set lookup, the same command took over 10
minutes there, most of it in ``load_problem`` at 10^5 vertices.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import direct_grid, shuffled_path_input  # noqa: E402
from plap import (  # noqa: E402
    ExponentField,
    Potential,
    PowerPlus,
    ProblemSpec,
    build_graph,
    load_problem,
    spec_to_document,
    validate_graph,
)

SIDES = (16, 32, 64, 128, 316)
PATH_VERTICES = 10 ** 5


def best(fn) -> tuple[float, object]:
    times, out = [], None
    while len(times) < 3 and sum(times) < 2.0:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def grid_input(side: int):
    spec = direct_grid(side, 0, 0)
    g = spec.graph
    rows, cols, w = g.ordered_pairs
    upper = rows < cols
    labels = g.vertices
    edges = [(labels[r], labels[c], x)
             for r, c, x in zip(rows[upper].tolist(), cols[upper].tolist(), w[upper].tolist())]
    return list(g.interior), list(g.boundary), edges, spec.q.values


def shuffled_path(n: int):
    interior, boundary, edges = shuffled_path_input(n)
    return interior, boundary, edges, np.random.default_rng(1).uniform(0.5, 2.0, n - 2)


def row(name: str, interior, boundary, edges, q) -> str:
    t_build, g = best(lambda: build_graph(interior, boundary, edges))
    t_validate, report = best(lambda: validate_graph(g))
    assert report.passed, report.failures()
    ni = g.n_interior

    def spec():
        return ProblemSpec(g, ExponentField.constant(g, 3.0), Potential(g, q),
                           PowerPlus(g, phi=np.ones(ni), m=np.full(ni, 2.5), psi=np.ones(ni)),
                           1.0)

    t_spec, s = best(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(spec_to_document(s)), encoding="utf-8")
        t_load, _ = best(lambda: load_problem(path))
    return (f"{name:>12} {g.n_vertices:>8} {len(edges):>8} {t_build:>9.4f} "
            f"{t_validate:>9.4f} {t_spec:>9.4f} {t_load:>9.3f}")


def main(argv: list[str]) -> None:
    sides = [int(a) for a in argv] or SIDES
    print(f"{'instance':>12} {'vertices':>8} {'edges':>8} {'build_s':>9} "
          f"{'valid_s':>9} {'spec_s':>9} {'load_s':>9}", flush=True)
    for side in sides:
        print(row(f"grid{side}", *grid_input(side)), flush=True)
    if not argv:
        print(row("path1e5", *shuffled_path(PATH_VERTICES)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
