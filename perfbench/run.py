"""Layered benchmark of the plap library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload grid_direct --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one process each
    python3 perfbench/run.py --workload fixtures_cli --smoke   # tiny sizes

The library is imported from ``src/`` next to this directory and nowhere
else.  One run solves one workload's instances in a closed loop (one client,
one thread) and re-certifies every reported solution independently
(``oracle.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and its median reported; then instances are solved round-robin for
``--seconds`` (every instance at least once) and each instance's time is the
median of its samples.  ``--trace 1`` runs a plain pass, then a traced set-up
and traced pass, whatever ``--seconds`` says, and reports the per-layer
metrics of ``tracing.LAYER_METRICS``; the spans go to ``.perfbench_out/``.

The exit code is 1 when any check fails, 2 when the library cannot be
imported from ``src/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, serial sweeps; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PLAP_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
OUT_DIR = Path(".perfbench_out")

WORKLOADS = ("grid_direct", "grid_two_solution", "fixtures_cli")
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "max_instance_s": "s",
             "certified_ratio": "ratio", "peak_rss_mb": "MB"}
# Set-up is timed at least this many times, and until this many seconds.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def import_library():
    """Import plap from src/ of this checkout, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import plap
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import plap from {SRC}: {exc}\n")
        sys.exit(2)
    if Path(plap.__file__).resolve().parent != (SRC / "plap").resolve():
        sys.stderr.write(f"perfbench: plap imported from {plap.__file__}, not from {SRC}\n")
        sys.exit(2)
    return plap


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def warm_up(plap) -> None:
    """Solve a one-vertex two-solution instance so lazy imports and first-call
    costs fall before timing starts."""
    g = plap.build_graph(["a"], ["b", "c"], [("a", "b", 1.0), ("a", "c", 1.0)])
    spec = plap.ProblemSpec(graph=g, p=plap.ExponentField.constant(g, 2.0),
                            q=plap.Potential.constant(g, 1.0),
                            f=plap.PowerPlus(g, 1.0, 4.0, 0.1), lam=0.3)
    plap.solve(spec)


class Tally:
    """Attempted and failed instance solves, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def solve_and_check(self, inst, tracer=None) -> tuple[float, int]:
        """Solve once, traced if a tracer is given, then check with tracing
        off; return (seconds, certified solutions)."""
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # a raising solve is a counted failure, not a crash
            self._fail(inst, [f"raised {type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, 0
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = time.perf_counter() - t0
        certified, failures = inst.check(out)
        if failures:
            self._fail(inst, failures)
        return elapsed, certified

    def _fail(self, inst, messages: list[str]) -> None:
        self.failed += 1
        for msg in messages:
            line = f"{inst.name}: {msg}"
            if line not in self.failures:
                self.failures.append(line)


def build_all(instances) -> float:
    """Build every instance's spec; return the seconds it took."""
    for inst in instances:
        inst.spec = None  # free the previous build first
    t0 = time.perf_counter()
    specs = [inst.build() for inst in instances]
    elapsed = time.perf_counter() - t0
    for inst, spec in zip(instances, specs):
        inst.spec = spec
    return elapsed


def measure(instances, seconds: float, tally: Tally):
    """Solve every instance once, then keep solving until the deadline: next
    is, among the instances whose median time still fits, one with the fewest
    samples, the slowest first (its noise weighs most in the sums).

    Returns per-instance sample times and certified counts (first sample).
    """
    times: list[list[float]] = [[] for _ in instances]
    certified = [0] * len(instances)
    deadline = time.perf_counter() + seconds
    for k, inst in enumerate(instances):
        elapsed, certified[k] = tally.solve_and_check(inst)
        times[k].append(elapsed)
    while True:
        now = time.perf_counter()
        fits = [k for k in range(len(instances)) if now + statistics.median(times[k]) <= deadline]
        if not fits:
            return times, certified
        k = min(fits, key=lambda j: (len(times[j]), -statistics.median(times[j])))
        times[k].append(tally.solve_and_check(instances[k])[0])


def run_plain(instances, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics.  An instance's time is the median of its samples;
    ``solve_s`` sums them, and ``max_instance_s`` is the largest mean over the
    members of a group.  Members are draws of one chaotic cost distribution
    (sometimes two-peaked), which a mean estimates more steadily than a
    median."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        setups.append(build_all(instances))
    for inst in instances:
        inst.set_promise()
    times, certified = measure(instances, seconds, tally)
    groups: dict[str, list[int]] = {}
    for k, inst in enumerate(instances):
        groups.setdefault(inst.group, []).append(k)
    medians = [statistics.median(t) for t in times]
    group_s = {g: statistics.fmean(medians[k] for k in ks) for g, ks in groups.items()}
    promised = sum(inst.promised for inst in instances)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": sum(medians),
        "max_instance_s": max(group_s.values()),
        "certified_ratio": sum(certified) / promised,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in metrics.items():
        extra = f"  ({sum(certified)} of promised_solutions {promised})" \
            if name == "certified_ratio" else ""
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}{extra}")
    for g, ks in groups.items():
        print(f"  group {g} ({len(ks)} x {instances[ks[0]].n_edges} edges): "
              f"mean {group_s[g]:.4f} s over {sum(len(times[k]) for k in ks)} samples, "
              f"certified {sum(certified[k] for k in ks)}/"
              f"{sum(instances[k].promised for k in ks)}")
    return metrics


def run_traced(instances, tracer, spans_path: Path, tally: Tally) -> dict:
    """A plain pass, then a traced set-up and a traced pass.

    The counts come from the traced set-up and pass alone, so they repeat
    exactly for a seed; the plain pass gives the untraced time.
    """
    build_all(instances)
    for inst in instances:
        inst.set_promise()
    untraced = sum(tally.solve_and_check(inst)[0] for inst in instances)
    tracer.install()
    tracer.active = True
    build_all(instances)
    tracer.active = False
    traced = 0.0
    for k, inst in enumerate(instances):
        tracer.current = k
        traced += tally.solve_and_check(inst, tracer)[0]
    metrics = tracer.metrics(instances, untraced, traced)
    tracer.write(spans_path)
    for name, unit, moves in tracing.LAYER_METRICS:
        note = "; nothing to measure, reported as 0" if name in tracer.unmeasured else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}    [moves {moves}{note}]")
    for target in tracer.absent:
        print(f"  absent target: {target}")
    totals = tracer.totals()
    for k, inst in enumerate(instances):
        per = sorted(((secs, name) for (name, i), (_, secs) in totals.items() if i == k),
                     reverse=True)
        root = per[0][0] if per else 0.0
        top = ", ".join(f"{name} {secs / root:.0%}" for secs, name in per[1:5]) if root else ""
        print(f"  instance {inst.name} ({inst.n_edges} edges): traced {root:.3f} s; {top}")
    print(f"  module self_s sum {sum(tracer.self_times().values()):.4f} s vs traced solve_s "
          f"{traced:.4f} s (untraced {untraced:.4f} s); "
          f"{len(tracer.start)} spans written to {spans_path}")
    return metrics


def run_one(args) -> int:
    plap = import_library()
    import workloads

    info = machine_info()
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds:g} s'}"
          f"{', smoke sizes' if args.smoke else ''}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    instances = workloads.make(args.workload, args.seed, smoke=args.smoke)
    warm_up(plap)
    tally = Tally()
    if args.trace:
        spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        metrics = run_traced(instances, tracing.Tracer(), spans_path, tally)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = run_plain(instances, args.seconds, tally)
        units = E2E_UNITS
    print(f"  failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    for line in tally.failures:
        print(f"  FAILED {line}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric at the end."""
    rc = 0
    table = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        rc = rc or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            table.append(f"{workload}: no result (exit {proc.returncode})")
            continue
        ratio = result["failed"] / result["attempted"]
        cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
        table.append(f"{workload}: " + ", ".join(cells) + f", failed_ratio {ratio:.3g}")
    print("summary:")
    for row in table:
        print("  " + row)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, to check that the harness works")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
