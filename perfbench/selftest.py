#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) it runs ``run.py`` once untraced
and twice traced with one seed and ``--seconds 1``, and checks that:

* the untraced run prints exactly the ``end_to_end`` metric names of
  BENCHMARK.json, reports ``correct``, and has an error rate of 0;
* each traced run prints exactly the ``per_layer`` names;
* every count and fraction of the two traced runs is identical;
* on ``decide_batch`` every ``covering.*`` and ``seqspace.oracle*`` count
  is zero.

It exits 0 when every check holds and prints one line per failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # "metric NAME = VALUE UNIT" lines, as printed for a reader
    result["printed"] = {line.split()[1]: float(line.split()[3])
                         for line in proc.stdout.splitlines() if line.startswith("metric ")}
    return result


def check(workload: str) -> list[str]:
    problems = []
    plain = run(workload, 0)
    want = [m["name"] for m in SPEC["end_to_end"]]
    if list(plain["metrics"]) != want or list(plain["printed"]) != want + ["error_rate"]:
        problems.append(f"{workload}: end-to-end names {list(plain['printed'])} != {want}")
    if not plain["correct"] or plain["printed"].get("error_rate") != 0.0:
        problems.append(f"{workload}: correct={plain['correct']} "
                        f"error_rate={plain['printed'].get('error_rate')}")

    first, second = run(workload, 1), run(workload, 1)
    want = [m["name"] for m in SPEC["per_layer"]]
    for traced in (first, second):
        if list(traced["metrics"]) != want or list(traced["printed"]) != want:
            problems.append(f"{workload}: per-layer names differ from BENCHMARK.json")
        if not traced["correct"]:
            problems.append(f"{workload}: traced run reported failed queries")
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "fraction")]
    for name in counted:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} differs across same-seed runs: {a} != {b}")
        if workload == "decide_batch" and a != 0 and (
                name.startswith("covering.") or name.startswith("seqspace.oracle")):
            problems.append(f"{workload}: {name} = {a}, expected 0")
    return problems


def main() -> int:
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    problems = []
    for workload in workloads:
        found = check(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
