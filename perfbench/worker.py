"""One fresh process of a benchmark run; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace

``setup`` only sets up (imports, input generation, warm-up) and reports
how long that took.  ``measure`` sets up, then runs as many whole rounds
as take about S seconds at the reference sample's nominal speed, with a
reference sample before every query and one after the last.  Both report
their times at the reference sample's nominal speed, and the wall times
alongside.  ``trace`` sets up, runs a fixed number of rounds untraced and
the same rounds traced, and reports the per-module totals of the traced
pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import ROOT, SRC, TESTS, WORKLOADS

# modules each workload's set-up imports; cli_cold imports none in process
SETUP_IMPORTS = {
    "decide_batch": ("decomp_embed.embedding",),
    "oracle_audit": ("decomp_embed.cli",),
    "covering_diag": ("decomp_embed.cli",),
    "cli_cold": (),
}
SPAN_DIR = ROOT / "perfbench" / "out"
# reference samples taken right after set-up; not before it, where the
# numpy of the array sample would be imported ahead of the set-up's imports
SETUP_REF_SAMPLES = 6


def set_up(name: str, seed: int):
    """Returns the workload, its rounds, the set-up wall seconds and the
    median of the reference samples taken after the set-up."""
    t0 = perf_counter()
    for mod in SETUP_IMPORTS[name]:
        __import__(mod)
    wl = WORKLOADS[name]()
    rounds = wl.rounds(seed)
    for query in wl.warmup(seed):
        wl.execute(query)
    wall = perf_counter() - t0
    refs = [wl.reference() for _ in range(SETUP_REF_SAMPLES)]
    return wl, rounds, wall, statistics.median(refs)


def run_rounds(execute, rounds, n_rounds, *, recorder=None, reference=None):
    """Closed loop over ``n_rounds`` whole rounds; returns queries, results,
    latencies (s), reference samples (s; one before each query and one
    after the last, if ``reference`` is given) and elapsed seconds."""
    queries, results, latencies, refs = [], [], [], []
    start = perf_counter()
    for done in range(n_rounds):
        for query in rounds[done % len(rounds)]:
            if reference is not None:
                refs.append(reference())
            if recorder is not None:
                recorder.begin_query(len(queries))
            t0 = perf_counter()
            try:
                result = execute(query)
            except Exception as exc:  # recorded as a failed query
                result = exc
            latencies.append(perf_counter() - t0)
            queries.append(query)
            results.append(result)
    if reference is not None:
        refs.append(reference())
    return queries, results, latencies, refs, perf_counter() - start


def checked(wl, queries, results):
    """Failure messages and the content report; exceptions are failures."""
    failures = [f"{q.get('family') or q['argv'][0]}: raised {r!r}"
                for q, r in zip(queries, results) if isinstance(r, Exception)]
    ok = [(q, r) for q, r in zip(queries, results) if not isinstance(r, Exception)]
    more, content = wl.check([q for q, _ in ok], [r for _, r in ok])
    return failures + more, content


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(name: str, seed: int) -> dict:
    wl, _, wall, ref = set_up(name, seed)
    return {"setup_s": wall * wl.ref_nominal_s / ref, "setup_wall_s": wall}


def measure(name: str, seed: int, seconds: float) -> dict:
    wl, rounds, setup_wall, setup_ref = set_up(name, seed)
    # a fixed number of rounds, not a time limit: how many rounds fit into
    # S seconds would depend on the host's speed, and so would the mix of
    # queries that the tail percentile falls on
    n_rounds = max(1, round(seconds * wl.rounds_per_s))
    queries, results, latencies, refs, elapsed = run_rounds(
        wl.execute, rounds, n_rounds, reference=wl.reference)
    rss = peak_rss_mb(name)
    failures, content = checked(wl, queries, results)
    refusal = wl.refusal(content) if hasattr(wl, "refusal") else None
    # the host's speed changes within seconds, so each query is scaled by
    # the mean of the samples just before and just after it
    scales = [2 * wl.ref_nominal_s / (a + b) for a, b in zip(refs, refs[1:])]
    return {
        "setup_s": setup_wall * wl.ref_nominal_s / setup_ref,
        "setup_wall_s": setup_wall,
        "elapsed_s": elapsed,
        "rounds": n_rounds,
        "latencies_s": [lat * k for lat, k in zip(latencies, scales)],
        "wall_latencies_s": latencies,
        "scale_median": statistics.median(scales),
        "attempted": len(queries),
        "failed": len(failures),
        "failures": failures[:5],
        "content": content,
        "peak_rss_mb": rss,
        "refusal": refusal,
    }


def _traced_cli_child(wl, raws: list, spans: list):
    """Execute function running each cli_cold case under ``cli_child.py``."""
    from tracer import TRACE_MARK

    def execute(query):
        cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *query["argv"]]
        proc = subprocess.run(cmd, capture_output=True, env=wl.env, cwd=ROOT, timeout=120)
        err = proc.stderr.decode(errors="replace")
        head, sep, tail = err.rpartition(TRACE_MARK)
        if sep:
            doc = json.loads(tail)
            raws.append(doc["raw"])
            spans.extend([len(raws) - 1, *span[1:]] for span in doc["spans"])
            err = head
        return proc.returncode, proc.stdout, err

    return execute


def trace(name: str, seed: int, seconds: float) -> dict:
    from tracer import Instrumentation, Recorder, layer_metrics, merge, write_spans

    wl, rounds, _, _ = set_up(name, seed)
    n_rounds = max(1, int(seconds * wl.trace_rounds_per_s))
    q_plain, r_plain, _, _, plain_s = run_rounds(wl.execute, rounds, n_rounds)

    if name == "cli_cold":
        raws, spans = [], []
        q_traced, r_traced, _, _, traced_s = run_rounds(
            _traced_cli_child(wl, raws, spans), rounds, n_rounds)
        raw = merge(raws)
    else:
        recorder = Recorder()
        inst = Instrumentation(recorder)
        inst.install()
        try:
            q_traced, r_traced, _, _, traced_s = run_rounds(
                wl.execute, rounds, n_rounds, recorder=recorder)
        finally:
            inst.uninstall()
        raw, spans = recorder.raw(), recorder.spans
    failures, _ = checked(wl, q_plain + q_traced, r_plain + r_traced)

    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    span_file = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    write_spans(spans, span_file)
    metrics = layer_metrics(raw)
    metrics["trace.queries"] = len(q_traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return {
        "metrics": metrics,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "rounds": n_rounds,
        "attempted": len(q_plain) + len(q_traced),
        "failed": len(failures),
        "failures": failures[:5],
        "span_file": str(span_file.relative_to(ROOT)),
        "spans": len(spans),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = ap.parse_args()
    sys.path[:0] = [str(SRC), str(TESTS)]
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds)
    else:
        result = trace(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
