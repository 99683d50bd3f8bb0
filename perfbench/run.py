#!/usr/bin/env python3
"""The decomp-embed benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload decide_batch --seed 1 --seconds 15 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to
this directory, and the references are ``tests/golden`` and
``tests/golden_refs.py``.  With ``--trace 0`` it prints the end-to-end
metrics: three set-up-only processes, one measuring process and three more
set-up-only processes run one after another, each fresh.  With
``--trace 1`` it prints the per-module metrics of a traced run.  Timed
end-to-end figures are given at the nominal speed of the workload's
reference sample (README.md, "Speed reference"); the wall-clock figures
are in the ``notes`` line.  Lines before the last describe the
environment, the workload's content and each metric; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from workloads import ROOT, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/decomp_embed/__init__.py", "src/decomp_embed/cli.py",
            "tests/golden/manifest.json", "tests/golden_refs.py")
# set-up is timed in this many fresh set-up-only processes before the
# measuring process and as many after it; the measuring process adds one
SETUP_SAMPLES_EACH_SIDE = 3
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "cpu": cpu,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def worker(workload: str, seed: int, seconds: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {mode} worker for {workload} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perfbench: {mode} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> tuple[float, float]:
    """Seconds to import numpy and the rest of the package, from
    ``-X importtime`` of a fresh ``import decomp_embed.cli``."""
    numpy_us = package_us = 0
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import decomp_embed.cli"],
                          capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("perfbench: importing decomp_embed.cli failed")
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, field = int(parts[1]), parts[2]
        name, top = field.strip(), len(field) - len(field.lstrip()) == 1
        if name == "numpy":
            numpy_us = cumulative
        if top and (name == "decomp_embed" or name.startswith("decomp_embed.")):
            package_us += cumulative
    return numpy_us / 1e6, (package_us - numpy_us) / 1e6


def latency_figures(latencies_s: list[float]) -> tuple[float, float, float, float]:
    """Queries per second of query time, p50 and tail latency in ms, and
    the tail's percentile: the highest percentile with at least ten samples
    beyond it."""
    lat = sorted(x * 1000.0 for x in latencies_s)
    n = len(lat)
    tail, tail_pct = (lat[n - 11], 100.0 * (n - 10) / n) if n > 10 else (lat[-1], 100.0)
    return 1000.0 * n / sum(lat), statistics.median(lat), tail, tail_pct


def end_to_end(args) -> tuple[dict, dict]:
    def setup_samples() -> list[dict]:
        return [worker(args.workload, args.seed, args.seconds, "setup")
                for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    # samples on both sides of the measuring loop, so that their median
    # spans the run rather than a few seconds of it
    setups = setup_samples()
    res = worker(args.workload, args.seed, args.seconds, "measure")
    if res["refusal"]:
        sys.exit(f"perfbench: seed {args.seed} refused for {args.workload}: {res['refusal']}")
    setups += [res, *setup_samples()]
    # every timed figure is at the reference sample's nominal speed; the
    # wall-clock figures go to the notes
    qps, p50, tail, tail_pct = latency_figures(res["latencies_s"])
    wall_qps, wall_p50, wall_tail, _ = latency_figures(res["wall_latencies_s"])
    metrics = {
        "queries_per_s": (qps, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "error_rate": res["failed"] / res["attempted"],
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(res["latencies_s"]),
        "rounds": res["rounds"],
        "elapsed_s": res["elapsed_s"],
        "scale_median": res["scale_median"],
        "wall": {"queries_per_s": wall_qps, "latency_p50_ms": wall_p50,
                 "latency_tail_ms": wall_tail,
                 "setup_s": statistics.median(s["setup_wall_s"] for s in setups)},
        "setup_samples_s": [s["setup_s"] for s in setups],
        "content": res["content"],
        "failures": res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
    }
    return metrics, notes


def per_layer(args) -> tuple[dict, dict]:
    from tracer import PER_LAYER

    res = worker(args.workload, args.seed, args.seconds, "trace")
    samples = [import_times() for _ in range(IMPORT_SAMPLES)]
    values = dict(res["metrics"])
    values["cli.import_numpy_s"] = statistics.median(s[0] for s in samples)
    values["cli.import_pkg_s"] = statistics.median(s[1] for s in samples)
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    notes = {k: res[k] for k in ("untraced_s", "traced_s", "rounds", "span_file", "spans",
                                 "failures", "attempted", "failed")}
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: the checkout lacks {missing}; nothing to measure\n")
        return 2

    env = environment(args.seed)
    metrics, notes = (per_layer if args.trace else end_to_end)(args)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    if "content" in notes:
        print("content " + json.dumps(notes.pop("content")))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    if "error_rate" in notes:
        print(f"metric error_rate = {notes['error_rate']!r} fraction")
    print("notes " + json.dumps(notes))
    print(json.dumps({
        "correct": notes["failed"] == 0,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
