#!/usr/bin/env python3
"""Whether two source trees give byte-identical `check --json` reports.

A change that claims to keep every report as it was is held to this
beside tests/test_golden.py, which pins one run.  For each suite and
each seed of a grid, every tree runs

    python -m teasim.cli check --suite S --trials N --seed K --json

in a fresh process.  The script prints the SHA-256 digest and exit code
of every run that differs between the trees, then a count, and exits 1
if any differs.

    python scripts/same_reports.py OLD/src src
    python scripts/same_reports.py OLD/src src --seeds 1 2 3 --trials 200
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys


def run(src: str, argv: list[str]) -> tuple[str, int]:
    """(digest of stdout, exit code) of the CLI from one tree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    p = subprocess.run([sys.executable, "-m", "teasim.cli", *argv],
                       env=env, capture_output=True)
    return hashlib.sha256(p.stdout).hexdigest(), p.returncode


def suite_names(src: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", "from teasim.cli import SUITES; print(*SUITES)"],
        env=env, check=True, capture_output=True, text=True).stdout
    return out.split()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs=2, help="the two source trees")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    suites = suite_names(args.src[1])
    differ = 0
    for suite in suites:
        for seed in args.seeds:
            argv = ["check", "--suite", suite, "--trials", str(args.trials),
                    "--seed", str(seed), "--json"]
            got = [run(src, argv) for src in args.src]
            if got[0] != got[1]:
                differ += 1
                print(f"suite {suite} seed {seed}:")
                for src, (digest, code) in zip(args.src, got):
                    print(f"  {src}: {digest} exit {code}")
    runs = len(suites) * len(args.seeds)
    print(f"{differ} of {runs} reports differ "
          f"({args.trials} trials, seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
