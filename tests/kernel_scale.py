"""Print the cost of one kernel call on large grids, to compare two versions.

For each ``direct_grid(side, 0, 0)`` (side 16 to 316; p = 3 and f = t^1.5 +
1, the ``grid_direct`` workload's shape) one line gives, in microseconds, the
best of 7 rounds of

    fused     one ``energy_gradient`` call (J and grad J in one pass)
    hx        one Hessian product, the product built once beforehand
    residual  one ``residual_original`` call, the original operator's
              sup-norm (the certificate, through ``calculus.edge_flux``)

at a fixed positive vector, with the number of edges, the fused cost per
edge in ns and the bytes of the instance's per-edge arrays
(``conftest.edge_bytes``: the graph's edge list plus the arrays the kernel
owns), in MB.  Then, on the 64x64 grid, one line per stack of K = 1, 3 and 6
vectors gives the fused call's cost, its cost per row and its minor page
faults per call (``resource.getrusage``):

    PYTHONPATH=src python tests/kernel_scale.py [side ...]

Given sides, it prints those grids only, without the stacks.  It runs in
about 15 s on one core of a 2-vCPU Xeon.
"""

from __future__ import annotations

import resource
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import direct_grid, edge_bytes  # noqa: E402
from plap import VertexFunction, residual_original  # noqa: E402

SIDES = (16, 64, 128, 316)
STACKS = (1, 3, 6)


def best_us(fn, budget: float = 0.2) -> float:
    """The least time of one call over 7 rounds of about ``budget`` s each."""
    number = max(1, int(budget / max(timeit.timeit(fn, number=1), 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def row(side: int) -> str:
    spec = direct_grid(side, 0, 0)
    kernel = spec._kernel
    n = kernel.n
    rng = np.random.default_rng(side)
    v, x = rng.uniform(0.1, 1.0, n), rng.uniform(-1.0, 1.0, n)
    u, product = VertexFunction(spec.graph, kernel.full(v)), kernel.hessian(v)
    edges = len(kernel.graph.edges[0])
    fused = best_us(lambda: kernel.energy_gradient(v))
    hx = best_us(lambda: product(x))
    residual = best_us(lambda: residual_original(spec, u))
    return (f"grid{side:<4} {n:>8} {edges:>8} {fused:>10.1f} {hx:>10.1f} {residual:>10.1f} "
            f"{fused / edges * 1e3:>8.1f} {sum(edge_bytes(spec)) / 1e6:>8.2f}")


def stack_row(kernel, k: int) -> str:
    stack = np.random.default_rng(k).uniform(0.1, 1.0, (k, kernel.n))
    v = stack[0] if k == 1 else stack
    us = best_us(lambda: kernel.energy_gradient(v))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(100):
        kernel.energy_gradient(v)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100
    return f"grid64 K={k:<3} {us:>10.1f} {us / k:>10.1f} {faults:>10.1f}"


def main(argv: list[str]) -> None:
    sides = [int(a) for a in argv] or SIDES
    print(f"{'instance':<9} {'interior':>8} {'edges':>8} {'fused_us':>10} {'hx_us':>10} "
          f"{'resid_us':>10} {'ns/edge':>8} {'edge_MB':>8}", flush=True)
    for side in sides:
        print(row(side), flush=True)
    if not argv:
        kernel = direct_grid(64, 0, 0)._kernel
        print(f"{'stack':<12} {'fused_us':>10} {'us/row':>10} {'faults':>10}", flush=True)
        for k in STACKS:
            print(stack_row(kernel, k), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
