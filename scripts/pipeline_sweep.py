#!/usr/bin/env python3
"""Sweep pipeline parameters and report cycles-to-halt on the bundled
programs.  A quick way to see how fetch width, station count, and the
prefetcher change machine behavior without touching correctness."""

import argparse
import sys

from teasim import asm
from teasim.isa import run_isa
from teasim.ma import MaParams, run_ma


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--program", default="primality",
                    choices=["primality", "meltdown", "spectre"])
    args = ap.parse_args()

    prog = asm.load_bundled(args.program)
    _, base_instr = run_isa(asm.emit_isa(prog), 200_000)
    print(f"{args.program}: {base_instr} architectural steps\n")
    print(f"{'fetch':>5} {'stations':>8} {'prefetch':>10} {'cycles':>8} "
          f"{'instr/cycle':>12}")
    for fetch in (1, 2, 3, 4):
        for rs in (2, 4, 8):
            for pf in (("none",), ("next", 1)):
                params = MaParams(fetch_num=fetch, rs_count=rs, prefetch=pf)
                s, cycles = run_ma(asm.emit_ma(prog, params), 400_000)
                if not s.halt:
                    print(f"{fetch:>5} {rs:>8} {pf[0]:>10}    (did not halt)")
                    continue
                ipc = base_instr / cycles
                print(f"{fetch:>5} {rs:>8} {pf[0]:>10} {cycles:>8} {ipc:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
