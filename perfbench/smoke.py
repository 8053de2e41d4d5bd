"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, in its own process and with ``--smoke``
sizes: a plain run must print every end-to-end metric by name with its unit
and pass its correctness gate; two traced runs must print every per-layer
metric with its unit, give identical counts, and have
module self times that sum to the traced solve time.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".iterations", ".constructions")
SELF_SUM = re.compile(r"module self_s sum ([0-9.]+) s vs traced solve_s ([0-9.]+) s")


def run(workload: str, trace: int) -> tuple[int, str, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, proc.stdout, result


def check_metrics(label: str, spec: list[dict], text: str, result: dict):
    problems = []
    got = result["metrics"]
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
            continue
        if got[name]["unit"] != unit:
            problems.append(f"{label}: {name} has unit {got[name]['unit']}, expected {unit}")
        if not re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}\b", text, re.M):
            problems.append(f"{label}: {name} not printed with its unit")
    extra = set(got) - {m["name"] for m in spec}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        rc, text, result = run(w, 0)
        if result is None or rc != 0 or not result["correct"]:
            problems.append(f"{w} plain: exit {rc}, result {result}")
        else:
            problems += check_metrics(f"{w} plain", bench["end_to_end"], text, result)
        traced = [run(w, 1) for _ in range(2)]
        for rc, text, result in traced:
            if result is None or rc != 0 or not result["correct"]:
                problems.append(f"{w} traced: exit {rc}, result {result}")
                break
            problems += check_metrics(f"{w} traced", bench["per_layer"], text, result)
            match = SELF_SUM.search(text)
            if not match:
                problems.append(f"{w} traced: no self_s sum line")
            elif abs(float(match[1]) - float(match[2])) > 0.01 * float(match[2]) + 1e-3:
                problems.append(f"{w} traced: self_s sum {match[1]} s vs solve_s {match[2]} s")
        else:
            counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                      for _, _, r in traced]
            if counts[0] != counts[1]:
                diff = {k: (counts[0].get(k), counts[1].get(k))
                        for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k)}
                problems.append(f"{w} traced: counts differ between runs: {diff}")
        print(f"{w}: {'ok' if len(problems) == before else 'problems'}")
    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
