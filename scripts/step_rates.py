#!/usr/bin/env python3
"""Criterion 7's step rates, measured so that a change can be compared.

tests/test_acceptance.py::test_criterion_7_throughput times one pass of
200,000 `isa_det_step` and 20,000 `ma_step` steps over the bundled
primality program, and asks for an ISA/pipeline ratio of at least 10x.
One pass cannot resolve a change to the pipeline on a shared host, so
this script runs the same two loops in N rounds.  In each round every
source tree is measured in a fresh process, in alternating order, and
the process keeps the best of k passes of each loop, the ISA and
pipeline passes interleaved.  It prints each round's rates and, per
tree, the median ISA and pipeline steps/s and their ratio.  For each
tree after the first it then prints one line: its ISA and pipeline
speed-ups over the first tree, each the median over the rounds of the
round's speed-up (the two trees of a round run back to back), and how
the median ratio moved.  A change keeps criterion 7's margin when its
ISA speed-up is at least its pipeline speed-up.

    python scripts/step_rates.py                    # this checkout's src
    python scripts/step_rates.py OLD/src src -n 8   # two trees, interleaved
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ISA_STEPS, MA_STEPS = 200_000, 20_000  # criterion 7's loop lengths


def rate(step, s0, n: int) -> float:
    """Criterion 7's loop: n steps from s0, restarting at halt."""
    s, k = s0, 0
    t0 = time.perf_counter()
    while k < n:
        if s.halt:
            s = s0
        s = step(s)
        k += 1
    return n / (time.perf_counter() - t0)


def best_rates(k: int) -> dict:
    """The best of k interleaved passes of each loop, in this process."""
    from teasim import asm
    from teasim.isa import isa_det_step
    from teasim.ma import ma_step

    prog = asm.load_bundled("primality")
    isa0, ma0 = asm.emit_isa(prog), asm.emit_ma(prog)
    isa = ma = 0.0
    for _ in range(k):
        isa = max(isa, rate(isa_det_step, isa0, ISA_STEPS))
        ma = max(ma, rate(ma_step, ma0, MA_STEPS))
    return {"isa": isa, "ma": ma}


def measure(src: str, k: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", str(k)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*",
                    default=[os.path.join(HERE, os.pardir, "src")],
                    help="source trees to measure (default: this checkout's)")
    ap.add_argument("-n", "--rounds", type=int, default=5)
    ap.add_argument("-k", "--best-of", type=int, default=3)
    ap.add_argument("--one", type=int, metavar="K", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(best_rates(args.one)))
        return 0
    if args.rounds < 1 or args.best_of < 1:
        ap.error("--rounds and --best-of must be at least 1")

    runs: dict[str, list[dict]] = {src: [] for src in args.src}
    for i in range(args.rounds):
        order = args.src if i % 2 == 0 else args.src[::-1]
        for src in order:
            r = measure(src, args.best_of)
            runs[src].append(r)
            print(f"round {i + 1} {src}: ISA {r['isa']:,.0f}/s, "
                  f"pipeline {r['ma']:,.0f}/s, ratio {r['isa'] / r['ma']:.1f}x",
                  flush=True)
    print(f"\nmedians over {args.rounds} rounds, best of {args.best_of}:")
    for src, rs in runs.items():
        ratios = [r["isa"] / r["ma"] for r in rs]
        print(f"{src}: ISA {statistics.median(r['isa'] for r in rs):,.0f}/s, "
              f"pipeline {statistics.median(r['ma'] for r in rs):,.0f}/s, "
              f"ratio {statistics.median(ratios):.1f}x "
              f"(lowest {min(ratios):.1f}x)")
    first, *rest = args.src
    base = runs[first]
    for src in rest:
        isa_up = statistics.median(r["isa"] / b["isa"]
                                   for r, b in zip(runs[src], base))
        ma_up = statistics.median(r["ma"] / b["ma"]
                                  for r, b in zip(runs[src], base))
        was = statistics.median(b["isa"] / b["ma"] for b in base)
        now = statistics.median(r["isa"] / r["ma"] for r in runs[src])
        print(f"{src} over {first}: ISA {isa_up:.3f}x, pipeline "
              f"{ma_up:.3f}x; median ratio {was:.1f}x -> {now:.1f}x "
              f"({now - was:+.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
