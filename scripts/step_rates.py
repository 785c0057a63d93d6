#!/usr/bin/env python3
"""Criterion 7's step rates and the recorded layers' costs, measured so
that a change can be compared.

tests/test_acceptance.py::test_criterion_7_throughput times one pass of
200,000 `isa_det_step` and 20,000 `ma_step` steps over the bundled
primality program, and asks for an ISA/pipeline ratio of at least 10x.
That loop does not predict what the benchmark's verdicts spend in the
pipeline, so every source tree also runs the suites of
`check --suite S --trials N --seed K` for each verdict below and each
seed, recording the arguments and result of every call of
`ma.step_core`, `variants.next_h` and `variants.derive_choice`.  Each
tree records its own calls, since a record pickled in one tree does
not unpickle in a tree whose records have other fields.

Then, in N rounds, every tree is measured in a fresh process, the trees
in alternating order.  The process keeps the best of k passes of
criterion 7's two loops, the ISA and pipeline passes interleaved, then
the best of k passes over each layer's inputs as the tree recorded
them, with the collector off.  A replayed result unlike the recorded
one is counted: each tree replays its own record, and each tree after
the first the first tree's too, where that record unpickles in it; a
layer whose recorded calls raise there (the record's fields are read
otherwise) is reported as not replaying and left out of that count.
The script exits 1 if any counted result differs.  It prints each
round's rates and µs per call, then per tree their medians, the lowest
round's ratio and its call counts, and for each tree after the first
its speed-ups over the first, each the median over the rounds of the
round's speed-up, how the median ratio moved, and whether the first
tree's record replayed in it.  A change keeps criterion 7's margin when
its ISA speed-up is at least its pipeline speed-up; a change that
alters the calls (their count or arguments) is compared per call.

    python scripts/step_rates.py                    # this checkout's src
    python scripts/step_rates.py OLD/src src -n 8   # two trees, interleaved
    python scripts/step_rates.py OLD/src src -n 5 -k 3 --seeds 1 2 3
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

HERE = os.path.dirname(os.path.abspath(__file__))
ISA_STEPS, MA_STEPS = 200_000, 20_000  # criterion 7's loop lengths
# Layer -> (module, function); the recorded calls pass positional
# arguments only.
LAYERS = {
    "step_core": ("teasim.ma", "step_core"),
    "next_h": ("teasim.variants", "next_h"),
    "derive_choice": ("teasim.variants", "derive_choice"),
}
# The benchmark's three verdicts.
VERDICTS = (("spectre-buggy", 1), ("meltdown-safe", 10), ("entangled", 20))


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


def replay_differ(calls: dict) -> dict[str, int | str]:
    """Per layer, the recorded calls whose result this tree's function
    gives differently, or, when a call raises (a record whose fields
    this tree reads otherwise), the exception as `Type: message`."""
    out: dict[str, int | str] = {}
    for layer, (mod, name) in LAYERS.items():
        fn = getattr(importlib.import_module(mod), name)
        try:
            out[layer] = sum(fn(*args) != want for args, want in calls[layer])
        except Exception as e:
            out[layer] = f"{type(e).__name__}: {e}"
    return out


def measure_here(path: str, k: int, against: str | None) -> dict:
    """In this process: {"isa", "ma": best steps/s over k interleaved
    passes of each loop, "layers": {layer: {"us": best µs per call over
    k passes, "calls": n, "differ": results unlike the recorded ones}},
    "against": results unlike those of the record at `against` per
    layer, or why it does not unpickle here (None without one)}."""
    from teasim import asm
    from teasim.isa import isa_det_step
    from teasim.ma import ma_step

    prog = asm.load_bundled("primality")
    isa0, ma0 = asm.emit_isa(prog), asm.emit_ma(prog)
    isa = ma = 0.0
    for _ in range(k):
        isa = max(isa, rate(isa_det_step, isa0, ISA_STEPS))
        ma = max(ma, rate(ma_step, ma0, MA_STEPS))

    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    # A verdict keeps few states alive; the collector would scan all
    # the recorded ones here, so it is off while the passes are timed.
    gc.disable()
    layers = {}
    for layer, (mod, name) in LAYERS.items():
        fn = getattr(importlib.import_module(mod), name)
        inputs = [args for args, _ in calls[layer]]
        best = float("inf")
        for _ in range(k):
            t0 = time.perf_counter()
            for args in inputs:
                fn(*args)
            best = min(best, time.perf_counter() - t0)
        layers[layer] = {"us": best / max(len(inputs), 1) * 1e6,
                         "calls": len(inputs)}
    for layer, n in replay_differ(calls).items():
        layers[layer]["differ"] = n
    other = None
    if against is not None:
        try:
            with open(against, "rb") as fh:
                theirs = pickle.load(fh)
        except (AttributeError, ImportError, TypeError) as e:
            # A record class with other fields, or none of that name.
            other = f"{type(e).__name__}: {e}"
        else:
            other = replay_differ(theirs)
    return {"isa": isa, "ma": ma, "layers": layers, "against": other}


def child(src: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*",
                    default=[os.path.join(HERE, os.pardir, "src")],
                    help="source trees to measure, the first recording "
                         "(default: this checkout's)")
    ap.add_argument("-n", "--rounds", type=int, default=5)
    ap.add_argument("-k", "--best-of", type=int, default=3)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 17)))
    ap.add_argument("--record", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--one", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--against", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.record:
        record(args.record, args.seeds)
        return 0
    if args.one:
        print(json.dumps(measure_here(args.one, args.best_of, args.against)))
        return 0
    if args.rounds < 1 or args.best_of < 1:
        ap.error("--rounds and --best-of must be at least 1")

    first, *rest = args.src
    runs: dict[str, list[dict]] = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {src: os.path.join(tmp, f"calls-{i}.pickle")
                 for i, src in enumerate(args.src)}
        for src, path in paths.items():
            child(src, "--record", path, "--seeds", *map(str, args.seeds))
        for i in range(args.rounds):
            order = args.src if i % 2 == 0 else args.src[::-1]
            for src in order:
                against = () if src == first else ("--against", paths[first])
                r = json.loads(child(src, "--one", paths[src], *against,
                                     "--best-of", str(args.best_of)))
                runs[src].append(r)
                print(f"round {i + 1} {src}: ISA {r['isa']:,.0f}/s, "
                      f"pipeline {r['ma']:,.0f}/s, ratio "
                      f"{r['isa'] / r['ma']:.1f}x; " + ", ".join(
                          f"{layer} {v['us']:.2f} µs"
                          for layer, v in r["layers"].items()), flush=True)

    print(f"\nmedians over {args.rounds} rounds, best of {args.best_of}")
    for src, rs in runs.items():
        ratios = [r["isa"] / r["ma"] for r in rs]
        print(f"{src}: ISA {statistics.median(r['isa'] for r in rs):,.0f}/s, "
              f"pipeline {statistics.median(r['ma'] for r in rs):,.0f}/s, "
              f"ratio {statistics.median(ratios):.1f}x "
              f"(lowest {min(ratios):.1f}x); " + ", ".join(
                  f"{layer} "
                  f"{statistics.median(r['layers'][layer]['us'] for r in rs):.2f}"
                  f" µs" for layer in LAYERS) + "; calls: " + ", ".join(
                  f"{layer} {v['calls']:,}"
                  for layer, v in rs[0]["layers"].items()))
    base = runs[first]
    for src in rest:
        pairs = list(zip(runs[src], base))
        ups = {"ISA": statistics.median(r["isa"] / b["isa"] for r, b in pairs),
               "pipeline": statistics.median(r["ma"] / b["ma"]
                                             for r, b in pairs)}
        ups.update({layer: statistics.median(
            b["layers"][layer]["us"] / r["layers"][layer]["us"]
            for r, b in pairs) for layer in LAYERS})
        was = statistics.median(b["isa"] / b["ma"] for b in base)
        now = statistics.median(r["isa"] / r["ma"] for r in runs[src])
        print(f"{src} over {first}: "
              + ", ".join(f"{name} {up:.3f}x" for name, up in ups.items())
              + f"; median ratio {was:.1f}x -> {now:.1f}x ({now - was:+.1f}x)")
    differ = {layer: max(r["layers"][layer]["differ"]
                         for rs in runs.values() for r in rs)
              for layer in LAYERS}
    for src in rest:
        if src == first:  # one tree named twice
            continue
        cross = [r["against"] for r in runs[src]]
        if isinstance(cross[0], str):
            print(f"{src}: {first}'s record does not unpickle here "
                  f"({cross[0]}); each tree replayed only its own")
            continue
        worst = {}
        for layer in LAYERS:
            raised = [c[layer] for c in cross if isinstance(c[layer], str)]
            if raised:
                print(f"{src}: {first}'s {layer} record does not replay "
                      f"here ({raised[0]})")
            else:
                worst[layer] = max(c[layer] for c in cross)
        if worst:
            print(f"{src} on {first}'s record: differing results: "
                  + ", ".join(f"{layer} {n}" for layer, n in worst.items()))
        for layer, n in worst.items():
            differ[layer] = max(differ[layer], n)
    print("differing results: " + ", ".join(
        f"{layer} {n}" for layer, n in differ.items()))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
