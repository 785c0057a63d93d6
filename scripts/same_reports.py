#!/usr/bin/env python3
"""Whether two source trees give byte-identical CLI output.

A change that claims to keep every report as it was is held to this
beside tests/test_golden.py, which pins one run.  Every tree runs, each
in a fresh `python -m teasim.cli` process:

- `check --suite S --trials N --seed K --json` for each suite and each
  seed of a grid;
- `run P --machine M`, with and without `--trace`, for each bundled
  program P (read from the second tree) on each machine M;
- `demo meltdown` and `demo spectre`;
- two usage errors, `check --suite nope` and `check --trials -1`.

The script prints the SHA-256 digest of stdout and stderr and the exit
code of every run that differs between the trees, then a count, and
exits 1 if any differs.

    python scripts/same_reports.py OLD/src src
    python scripts/same_reports.py OLD/src src --seeds 1 2 3 --trials 200
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys


def run(src: str, argv: list[str]) -> tuple[str, int]:
    """(digest of stdout and stderr, exit code) of the CLI from one tree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    p = subprocess.run([sys.executable, "-m", "teasim.cli", *argv],
                       env=env, capture_output=True)
    out = hashlib.sha256(p.stdout + b"\0" + p.stderr).hexdigest()
    return out, p.returncode


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

    runs = [["check", "--suite", suite, "--trials", str(args.trials),
             "--seed", str(seed), "--json"]
            for suite in suite_names(args.src[1]) for seed in args.seeds]
    programs = sorted(glob.glob(os.path.join(args.src[1], "teasim", "programs",
                                             "*.asm")))
    runs += [["run", prog, "--machine", machine] + trace
             for prog in programs for machine in ("isa", "ma", "ma-h")
             for trace in ([], ["--trace"])]
    runs += [["demo", "meltdown"], ["demo", "spectre"],
             ["check", "--suite", "nope"], ["check", "--trials", "-1"]]
    differ = 0
    for argv in runs:
        got = [run(src, argv) for src in args.src]
        if got[0] != got[1]:
            differ += 1
            print(" ".join(argv) + ":")
            for src, (digest, code) in zip(args.src, got):
                print(f"  {src}: {digest} exit {code}")
    print(f"{differ} of {len(runs)} runs differ ({args.trials} trials, "
          f"seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
