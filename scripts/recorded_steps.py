#!/usr/bin/env python3
"""Replay the recorded inputs of three layers in two source trees.

Criterion 7's primality loop (scripts/step_rates.py) does not predict
what the benchmark's verdicts spend in `step_core`, so this script
measures the layers on the inputs those verdicts give them.  The first
tree runs the suites of `check --suite S --trials N --seed K` for each
verdict below and each seed, with `ma.step_core`, `variants.next_h` and
`variants.derive_choice` wrapped to record every call's arguments and
result.  Then, in N rounds, each tree replays every recorded call in a
fresh process, the trees in alternating order; a process keeps the best
of k passes over each layer's inputs.  A result that differs from the
first tree's is counted, and the script exits 1 if any does.  It prints
each tree's median µs per call per layer, and each later tree's
speed-up over the first, the median over the rounds of the round's
speed-up.

    python scripts/recorded_steps.py OLD/src src
    python scripts/recorded_steps.py OLD/src src -n 5 -k 3 --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

# Layer -> (module, function); the recorded calls pass positional
# arguments only.
LAYERS = {
    "step_core": ("teasim.ma", "step_core"),
    "next_h": ("teasim.variants", "next_h"),
    "derive_choice": ("teasim.variants", "derive_choice"),
}
# The benchmark's three verdicts.
VERDICTS = (("spectre-buggy", 1), ("meltdown-safe", 10), ("entangled", 20))


def record(path: str, seeds: list[int]) -> None:
    """Run the verdicts in this process with every layer wrapped, and
    pickle {layer: [(args, result), ...]} to path."""
    from teasim import cli
    from teasim.gen import GenConfig

    modules = [importlib.import_module(f"teasim.{m}")
               for m in ("ma", "variants", "refine", "gen", "cli")]
    calls: dict[str, list] = {}
    for layer, (mod, name) in LAYERS.items():
        fn = getattr(importlib.import_module(mod), name)
        log = calls[layer] = []

        def wrapped(*args, fn=fn, log=log):
            out = fn(*args)
            log.append((args, out))
            return out

        for m in modules:  # every binding of the function
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
    for suite, trials in VERDICTS:
        for seed in seeds:
            cli.suite_reports(suite, GenConfig(seed=seed, trials=trials))
    with open(path, "wb") as fh:
        pickle.dump(calls, fh, protocol=pickle.HIGHEST_PROTOCOL)


def replay(path: str, k: int) -> dict:
    """{layer: {"us": best µs per call over k passes, "calls": n,
    "differ": results unlike the recorded ones}} in this process."""
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    # A verdict keeps few states alive; the collector would scan all
    # the recorded ones here, so it is off while the passes are timed.
    gc.disable()
    out = {}
    for layer, (mod, name) in LAYERS.items():
        fn = getattr(importlib.import_module(mod), name)
        inputs = [args for args, _ in calls[layer]]
        best = float("inf")
        for _ in range(k):
            t0 = time.perf_counter()
            for args in inputs:
                fn(*args)
            best = min(best, time.perf_counter() - t0)
        differ = sum(fn(*args) != want for args, want in calls[layer])
        out[layer] = {"us": best / max(len(inputs), 1) * 1e6,
                      "calls": len(inputs), "differ": differ}
    return out


def child(src: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="the two source trees, oldest first")
    ap.add_argument("-n", "--rounds", type=int, default=3)
    ap.add_argument("-k", "--best-of", type=int, default=3)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 17)))
    ap.add_argument("--record", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--replay", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.record:
        record(args.record, args.seeds)
        return 0
    if args.replay:
        print(json.dumps(replay(args.replay, args.best_of)))
        return 0
    if len(args.src) != 2:
        ap.error("give two source trees")
    if args.rounds < 1 or args.best_of < 1:
        ap.error("--rounds and --best-of must be at least 1")

    runs: dict[str, list[dict]] = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "calls.pickle")
        child(args.src[0], "--record", path, "--seeds", *map(str, args.seeds))
        for i in range(args.rounds):
            order = args.src if i % 2 == 0 else args.src[::-1]
            for src in order:
                r = json.loads(child(src, "--replay", path,
                                     "--best-of", str(args.best_of)))
                runs[src].append(r)
                print(f"round {i + 1} {src}: " + ", ".join(
                    f"{layer} {v['us']:.2f} µs" for layer, v in r.items()),
                    flush=True)

    first, second = args.src
    calls = {layer: v["calls"] for layer, v in runs[first][0].items()}
    print(f"\nmedian µs per call over {args.rounds} rounds, best of "
          f"{args.best_of}; calls: "
          + ", ".join(f"{layer} {n:,}" for layer, n in calls.items()))
    for src, rs in runs.items():
        print(f"{src}: " + ", ".join(
            f"{layer} {statistics.median(r[layer]['us'] for r in rs):.2f}"
            for layer in LAYERS))
    ups = {layer: statistics.median(b[layer]["us"] / r[layer]["us"]
                                    for r, b in zip(runs[second], runs[first]))
           for layer in LAYERS}
    print(f"{second} over {first}: "
          + ", ".join(f"{layer} {up:.3f}x" for layer, up in ups.items()))
    differ = {layer: max(r[layer]["differ"] for rs in runs.values() for r in rs)
              for layer in LAYERS}
    print("differing results: " + ", ".join(
        f"{layer} {n}" for layer, n in differ.items()))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
