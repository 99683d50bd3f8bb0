#!/usr/bin/env python3
"""Replay the golden CLI transcripts of tests/golden/manifest.json.

Each case runs as ``python -m decomp_embed.cli <argv>`` in a fresh
interpreter, the one running this script, with this checkout's ``src/`` on
``PYTHONPATH``; its stdout must equal ``<case>.out`` byte for byte and its
exit code the manifest's.  ``--exact-only`` skips the cases that run the
numeric oracle (``--oracle``, ``--oracle-check``), the only ones that
import numpy, so the rest replays on an interpreter without it.  Uses the
standard library alone.

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exact-only", action="store_true",
                    help="skip the cases that run the numeric oracle")
    args = ap.parse_args()
    cases = json.loads((GOLDEN / "manifest.json").read_text())
    if args.exact_only:
        cases = [case for case in cases if not ORACLE_FLAGS & set(case["argv"])]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    changed = 0
    for case in cases:
        done = subprocess.run([sys.executable, "-m", "decomp_embed.cli", *case["argv"]],
                              capture_output=True, env=env, timeout=300)
        if done.stdout != (GOLDEN / f"{case['name']}.out").read_bytes():
            changed += 1
            print(f"{case['name']}: stdout differs", done.stderr.decode()[-400:])
        elif done.returncode != case["exit"]:
            changed += 1
            print(f"{case['name']}: exit {done.returncode}, golden {case['exit']}")
    print(f"{len(cases) - changed} of {len(cases)} golden CLI cases unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
