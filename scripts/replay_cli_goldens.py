#!/usr/bin/env python3
"""Replay the golden CLI transcripts of tests/golden/manifest.json and the
decide grid of tests/golden/decide_grid.jsonl.

Each CLI case runs as ``python -m decomp_embed.cli <argv>`` in a fresh
interpreter, the one running this script, with this checkout's ``src/`` on
``PYTHONPATH``; its stdout must equal ``<case>.out`` byte for byte and its
exit code the manifest's.  ``--exact-only`` skips the cases that run the
numeric oracle (``--oracle``, ``--oracle-check``), the only ones that
import numpy, so the rest replays on an interpreter without it.

The decide grid replays in this process: library ``decide`` on each
line's query, whose ``Verdict.to_json()`` must equal the line's verdict.
The grid never runs the oracle, so it replays in both modes, and numpy
must stay unloaded.  Uses the standard library alone.

    python scripts/replay_cli_goldens.py [--exact-only]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ORACLE_FLAGS = {"--oracle", "--oracle-check"}


def replay_grid() -> int:
    """Replay the decide grid in process; the count of lines that differ."""
    sys.path.insert(0, str(ROOT / "src"))
    from decomp_embed.embedding import decide

    lines = (GOLDEN / "decide_grid.jsonl").read_text().splitlines()
    changed = 0
    for n, line in enumerate(lines, 1):
        doc = json.loads(line)
        query = doc["query"]
        verdict = decide(query["family"], query["params"], p=query["p"], q=query.get("q"),
                         r=query["r"], target=query["target"], k=query["k"])
        if verdict.to_json() != doc["verdict"]:
            changed += 1
            print(f"decide_grid.jsonl line {n}: verdict differs")
    print(f"{len(lines) - changed} of {len(lines)} decide grid lines unchanged")
    if "numpy" in sys.modules:
        print("the decide grid loaded numpy")
        return changed + 1
    return changed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exact-only", action="store_true",
                    help="skip the CLI cases that run the numeric oracle")
    args = ap.parse_args()
    changed = replay_grid()
    cases = json.loads((GOLDEN / "manifest.json").read_text())
    if args.exact_only:
        cases = [case for case in cases if not ORACLE_FLAGS & set(case["argv"])]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli_changed = 0
    for case in cases:
        done = subprocess.run([sys.executable, "-m", "decomp_embed.cli", *case["argv"]],
                              capture_output=True, env=env, timeout=300)
        if done.stdout != (GOLDEN / f"{case['name']}.out").read_bytes():
            cli_changed += 1
            print(f"{case['name']}: stdout differs", done.stderr.decode()[-400:])
        elif done.returncode != case["exit"]:
            cli_changed += 1
            print(f"{case['name']}: exit {done.returncode}, golden {case['exit']}")
    print(f"{len(cases) - cli_changed} of {len(cases)} golden CLI cases unchanged")
    return 1 if changed or cli_changed else 0


if __name__ == "__main__":
    sys.exit(main())
