#!/usr/bin/env python3
"""Three-configuration bug hunt.

Runs the obligation suites for the safe machine (no cache-membership
instruction), the vulnerable machine under the rollback-leak notion of
correctness, and the vulnerable machine under the cache-action notion,
then prints a summary table of functional vs transient-execution
findings.  Seed and trial count are adjustable for longer campaigns.
"""

import argparse
import sys
import time

from teasim.cli import suite_reports
from teasim.gen import GenConfig


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = GenConfig(seed=args.seed, trials=args.trials)
    rows = []
    for suite in ("meltdown-safe", "meltdown-buggy", "spectre-buggy"):
        t0 = time.time()
        reports = suite_reports(suite, cfg)
        func = sum(r.functional_count for r in reports)
        tea = sum(r.tea_count for r in reports)
        rows.append((suite, func, tea, time.time() - t0))

    print(f"{'configuration':<18} {'func. bugs':>10} {'TEA bugs':>9} {'time':>8}")
    for suite, func, tea, dt in rows:
        print(f"{suite:<18} {func:>10} {tea:>9} {dt:>7.1f}s")

    safe = rows[0]
    ok = safe[1] == 0 and safe[2] == 0 and rows[1][2] >= 1 and rows[2][2] >= 1
    print("\nexpected split" if ok else "\nUNEXPECTED split")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
