#!/usr/bin/env python3
"""What the shrinker costs and what it gives, in two source trees.

For each tree, in a fresh process, it runs `check --suite S --json` for
each buggy suite S: once with `--trials 0`, which checks and shrinks the
bundled attack alone, and once per seed with `--trials N`, whose failures
of random trials it reads (the bundled one repeats there and is left
out).  For each failure it prints the candidates the shrink checked, the
`step_core` calls the shrink made and the shrunk case's instructions,
then a total per tree.

It exits 1 if the trees differ in a run's exit code, failing trials,
first obligation and kind per failure, or tea/functional counts, or if
the second tree's shrunk cases hold more instructions in total than the
first's.

    python scripts/shrink_costs.py OLD/src src
    python scripts/shrink_costs.py OLD/src src --seeds 1 2 3 --trials 200
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

SUITES = ("spectre-buggy", "meltdown-buggy")


def costs(runs: list[tuple[str, int, int]]) -> list[dict]:
    """Each (suite, seed, trials) check run in this process, with the
    cost of each of its shrinks."""
    from teasim import cli, gen, refine

    steps = 0
    for module in (gen, refine):
        def counting(s, step_core=module.step_core):
            nonlocal steps
            steps += 1
            return step_core(s)

        module.step_core = counting
    shrink = gen.shrink
    shrinks: list[dict] = []

    def measured(prop, case, obligation, step):
        checked = 0

        def check(*args):
            nonlocal checked
            checked += 1
            return prop.check(*args)

        before = steps
        small = shrink(replace(prop, check=check), case, obligation, step)
        shrinks.append({"checked": checked, "steps": steps - before,
                        "size": len(small.program.instrs)})
        return small

    gen.shrink = measured
    out = []
    for suite, seed, trials in runs:
        shrinks.clear()
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["check", "--suite", suite, "--trials",
                             str(trials), "--seed", str(seed), "--json"])
        doc = json.loads(text.getvalue())
        failures = [f for r in doc["reports"] for f in r["failures"]]
        out.append({
            "code": code,
            "counts": [doc["tea_count"], doc["functional_count"]],
            "failures": [
                {"trial": f["trial"], "first": [f["findings"][0]["obligation"],
                                                f["findings"][0]["kind"]],
                 **cost}
                for f, cost in zip(failures, shrinks)],
        })
    return out


def measure(src: str, runs: list[tuple[str, int, int]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", json.dumps(runs)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="the two source trees, old and new")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--one", metavar="RUNS", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(costs([tuple(r) for r in json.loads(args.one)])))
        return 0
    if len(args.src) != 2:
        ap.error("give two source trees, old and new")

    runs = [(suite, 0, 0) for suite in SUITES]
    runs += [(suite, seed, args.trials) for suite in SUITES
             for seed in args.seeds]
    got = [measure(src, runs) for src in args.src]
    print(f"per failure: {args.src[0]} | {args.src[1]}")
    differ = 0
    totals = [[0, 0, 0] for _ in args.src]  # checked, steps, size
    for i, (suite, seed, trials) in enumerate(runs):
        old, new = (g[i] for g in got)
        name = (f"{suite} bundled" if trials == 0
                else f"{suite} seed {seed}")
        same = ([old[k] for k in ("code", "counts")]
                == [new[k] for k in ("code", "counts")]
                and [(f["trial"], f["first"]) for f in old["failures"]]
                == [(f["trial"], f["first"]) for f in new["failures"]])
        differ += not same
        print(f"{name}: exit {old['code']} / {new['code']}, tea/functional "
              f"{old['counts']} / {new['counts']}"
              + ("" if same else "  DIFFERS"))
        for fo, fn in zip(old["failures"], new["failures"]):
            if trials and fo["trial"] < 0:
                continue  # the bundled case, shown by its own run
            print(f"  trial {fo['trial']:>4} {fo['first'][0]:<18}"
                  + "".join(f" | checked {f['checked']:>3} steps "
                            f"{f['steps']:>6} size {f['size']:>2}"
                            for f in (fo, fn)))
            for total, f in zip(totals, (fo, fn)):
                total[0] += f["checked"]
                total[1] += f["steps"]
                total[2] += f["size"]
    for src, (checked, steps, size) in zip(args.src, totals):
        print(f"{src}: checked {checked:,}, step_core {steps:,}, "
              f"shrunk instructions {size}")
    larger = totals[1][2] > totals[0][2]
    if differ or larger:
        print(f"{differ} runs differ; shrunk instructions "
              f"{totals[0][2]} -> {totals[1][2]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
