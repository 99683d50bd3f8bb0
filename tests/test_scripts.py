"""Smoke runs of the scripts under scripts/, each in a fresh interpreter
with this checkout's src/ on the path."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def test_freeze_goldens_check_finds_every_golden_unchanged():
    done = _run_script("freeze_goldens.py", "--check")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "16 of 16 golden files unchanged"


def test_sweep_gap_counts_its_verdicts():
    done = _run_script("sweep_gap.py", "--family", "hom_besov", "--params", '{"d":1,"s":"1/2"}',
                       "-p", "1", "-k", "0", "--axis", "1", "2", "inf")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("9 queries: 2 embed, 7 fail, 0 undetermined\n")


def test_replay_cli_goldens_finds_every_case_unchanged():
    done = _run_script("replay_cli_goldens.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "12 of 12 golden CLI cases unchanged"
    done = _run_script("replay_cli_goldens.py", "--exact-only")
    assert done.stdout.splitlines()[-1] == "10 of 10 golden CLI cases unchanged"
