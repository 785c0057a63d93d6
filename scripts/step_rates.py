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

Then, in N rounds, every tree gets a fresh measuring process, all of
them alive at once, which loads the tree's record and then times what
it is told on its stdin: one part of criterion 7's ISA loop, of its
pipeline loop, or of one layer's recorded inputs (with the collector
off).  A pass over a loop or layer comes in PARTS parts of a few
milliseconds each, and the trees take each part in turn (A, B, A, B,
...), then again in the reverse turn; each tree makes k such passes of
each loop and layer per round, and the round does it all twice, the
second time with the processes started in the reverse order.  A
tree's speed-up over the first tree is the median, over all rounds and
parts, of the first tree's time for a part over its own, taken as the
geometric mean of the two turns, with the quartiles of those ratios.
The two passes of a ratio ran milliseconds apart, so a shared host's
speed, which moves over seconds to minutes, mostly cancels, and so do
the turns' and the start order's small biases.  In three runs of
`src src -n 3` (two processes of one tree) on a shared 2-vCPU host,
every speed-up read 0.976-1.008x, and its quartiles 0.95-1.05x.
A replayed result unlike the recorded one is counted: each tree
replays its own record, and each tree after the first the first tree's
too, where that record unpickles in it; a layer whose recorded calls
raise there (the record's fields are read otherwise) is reported as not
replaying and left out of that count.  The script exits 1 if any
counted result differs.  It prints each round's best rates and µs per
call, then per tree their medians, the lowest round's ratio and its
call counts, and for each tree after the first its speed-ups over the
first, how the median ratio moved, and whether the first tree's record
replayed in it.  A change keeps criterion 7's margin when its ISA
speed-up is at least its pipeline speed-up; a change that alters the
calls (their count or arguments) is compared per call.

    python scripts/step_rates.py                    # this checkout's src
    python scripts/step_rates.py OLD/src src -n 8   # two trees, interleaved
    python scripts/step_rates.py OLD/src src -n 5 -k 3 --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
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
# What a round times: criterion 7's two loops and the recorded layers,
# each pass in PARTS parts that the trees take in turn (measure_round).
MEASURED = ("isa", "ma", *LAYERS)
PARTS = 10
# The benchmark's three verdicts.
VERDICTS = (("spectre-buggy", 1), ("meltdown-safe", 10), ("entangled", 20))


def loop_time(step, s, s0, n: int) -> tuple[float, object]:
    """Criterion 7's loop: n steps on from s, restarting at s0 at halt;
    the seconds they take, and the state they reach."""
    k = 0
    t0 = time.perf_counter()
    while k < n:
        if s.halt:
            s = s0
        s = step(s)
        k += 1
    return time.perf_counter() - t0, s


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


def serve(path: str, against: str | None) -> None:
    """A tree's measuring process for one round.  It loads the record at
    path, prints "ready", then answers each line on stdin with one line
    of stdout: "WHAT I P", WHAT "isa", "ma" or a layer's name, with the
    seconds that part I of P of one pass takes: the I-th P-th of that
    loop's steps, on from where part I - 1 stopped (part 0 starts the
    loop; part I - 1 runs first), or of that layer's recorded calls;
    and "replay" with
    {"calls": the recorded calls per layer, "differ": results unlike
    the recorded ones per layer, "against": the same for the record at
    `against`, or why it does not unpickle here (None without one)} as
    JSON."""
    from teasim import asm
    from teasim.isa import isa_det_step
    from teasim.ma import ma_step

    prog = asm.load_bundled("primality")
    loops = {"isa": (isa_det_step, asm.emit_isa(prog), ISA_STEPS),
             "ma": (ma_step, asm.emit_ma(prog), MA_STEPS)}
    # Where each part of a loop starts, as its first run found it.
    starts = {what: {0: s0} for what, (_, s0, _) in loops.items()}
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    inputs = {layer: (getattr(importlib.import_module(mod), name),
                      [args for args, _ in calls[layer]])
              for layer, (mod, name) in LAYERS.items()}
    # The record stays alive all round; frozen, the collector does not
    # scan it at each collection the loops' steps set off.
    gc.collect()
    gc.freeze()

    def part(what: str, i: int, parts: int) -> float:
        if what in loops:
            step, s0, n = loops[what]
            elapsed, starts[what][i + 1] = loop_time(
                step, starts[what][i], s0,
                n * (i + 1) // parts - n * i // parts)
            return elapsed
        fn, args_list = inputs[what]
        n = len(args_list)
        chunk = args_list[n * i // parts:n * (i + 1) // parts]
        # A verdict keeps few states alive; the collector is off while a
        # layer is timed, as it always has been here.
        gc.disable()
        t0 = time.perf_counter()
        for args in chunk:
            fn(*args)
        elapsed = time.perf_counter() - t0
        gc.enable()
        return elapsed

    print("ready", flush=True)
    for line in sys.stdin:
        cmd, *where = line.split()
        if cmd != "replay":
            print(part(cmd, *map(int, where)), flush=True)
            continue
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
        print(json.dumps({"calls": {l: len(c) for l, c in calls.items()},
                          "differ": replay_differ(calls), "against": other}),
              flush=True)


def child_env(src: str) -> dict:
    # One hash seed in every process, so that no tree's string sets and
    # dicts probe differently from another's by chance.
    return dict(os.environ, PYTHONPATH=os.path.abspath(src),
                PYTHONHASHSEED="0")


def child(src: str, *argv: str) -> str:
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                          env=child_env(src), check=True, capture_output=True,
                          text=True).stdout


class Server:
    """A tree's measuring process (see serve), asked one line at a time."""

    def __init__(self, src: str, *argv: str) -> None:
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv],
            env=child_env(src), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.read()

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the measuring process of {self.src} "
                               f"ended (exit {self.proc.wait()})")
        return line

    def ask(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # serve's loop ends at end of input
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def measure_round(trees: dict[str, str], records: dict[str, str],
                  k: int) -> tuple[dict, dict]:
    """One round over trees {name: source tree}, in two halves.  In
    each, every tree has a process, all alive at once, measuring the
    record of its source tree (records), and each loop and layer makes k
    passes in PARTS parts, each part taken by the trees in turn and then
    in the reverse turn.  The second half starts the processes in the
    reverse order: of two processes of one tree, the one started second
    ran `next_h` 2-4% faster, round after round.  Returns ({name:
    {"times": {what: [seconds per pass]}, and serve's "calls", "differ"
    and "against"}}, {what: [(seconds by name in the turn, in the
    reverse turn) per part]})."""
    first = records[next(iter(trees.values()))]
    names = list(trees)
    parts: dict[str, list[tuple[dict, dict]]] = {what: [] for what in MEASURED}
    out: dict[str, dict] = {}
    for spawn in (names, names[::-1]):
        servers: dict[str, Server] = {}
        try:
            for name in spawn:
                mine = records[trees[name]]
                against = () if mine == first else ("--against", first)
                servers[name] = Server(trees[name], "--serve", mine, *against)
            for what, ps in parts.items():
                for _ in range(k):
                    took = [[{name: float(servers[name].ask(
                        f"{what} {i} {PARTS}")) for name in turn}
                        for i in range(PARTS)]
                        for turn in (names, names[::-1])]
                    ps += zip(*took)
            if not out:  # a replay is deterministic: once is enough
                out = {name: json.loads(servers[name].ask("replay"))
                       for name in names}
        finally:
            for server in servers.values():
                server.close()
    for name in names:
        out[name]["times"] = {what: [
            sum(fwd[name] + rev[name] for fwd, rev in ps[j:j + PARTS]) / 2
            for j in range(0, len(ps), PARTS)] for what, ps in parts.items()}
    return out, parts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*",
                    default=[os.path.join(HERE, os.pardir, "src")],
                    help="source trees to measure, the first recording "
                         "(default: this checkout's)")
    ap.add_argument("-n", "--rounds", type=int, default=5)
    ap.add_argument("-k", "--best-of", type=int, default=3,
                    help="passes per tree of each loop and layer per round")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 17)))
    ap.add_argument("--record", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--serve", metavar="PATH", help=argparse.SUPPRESS)
    ap.add_argument("--against", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.record:
        record(args.record, args.seeds)
        return 0
    if args.serve:
        serve(args.serve, args.against)
        return 0
    if args.rounds < 1 or args.best_of < 1:
        ap.error("--rounds and --best-of must be at least 1")

    # A tree named twice is measured twice, in two processes: one
    # source tree against itself reads how far the speed-ups spread.
    names = [src if args.src.count(src) == 1 else f"{src} [{i + 1}]"
             for i, src in enumerate(args.src)]
    trees = dict(zip(names, args.src))
    first, *rest = names
    runs: dict[str, list[dict]] = {name: [] for name in names}
    ratios = {name: {what: [] for what in MEASURED} for name in rest}
    with tempfile.TemporaryDirectory() as tmp:
        records = {src: os.path.join(tmp, f"calls-{i}.pickle")
                   for i, src in enumerate(dict.fromkeys(args.src))}
        for src, path in records.items():
            child(src, "--record", path, "--seeds", *map(str, args.seeds))
        for i in range(args.rounds):
            got, parts = measure_round(trees, records, args.best_of)
            for name in rest:
                for what, ps in parts.items():
                    ratios[name][what] += [math.sqrt(
                        fwd[first] / fwd[name] * rev[first] / rev[name])
                        for fwd, rev in ps]
            for name, g in got.items():
                times = g["times"]
                r = {"isa": ISA_STEPS / min(times["isa"]),
                     "ma": MA_STEPS / min(times["ma"]),
                     "layers": {layer: {
                         "us": min(times[layer]) / max(g["calls"][layer], 1)
                         * 1e6,
                         "calls": g["calls"][layer],
                         "differ": g["differ"][layer]} for layer in LAYERS},
                     "against": g["against"]}
                runs[name].append(r)
                print(f"round {i + 1} {name}: ISA {r['isa']:,.0f}/s, "
                      f"pipeline {r['ma']:,.0f}/s, ratio "
                      f"{r['isa'] / r['ma']:.1f}x; " + ", ".join(
                          f"{layer} {v['us']:.2f} µs"
                          for layer, v in r["layers"].items()), flush=True)

    print(f"\nmedians over {args.rounds} rounds, each the best of "
          f"{2 * args.best_of} passes")
    for name, rs in runs.items():
        ratio = [r["isa"] / r["ma"] for r in rs]
        print(f"{name}: ISA {statistics.median(r['isa'] for r in rs):,.0f}/s, "
              f"pipeline {statistics.median(r['ma'] for r in rs):,.0f}/s, "
              f"ratio {statistics.median(ratio):.1f}x "
              f"(lowest {min(ratio):.1f}x); " + ", ".join(
                  f"{layer} "
                  f"{statistics.median(r['layers'][layer]['us'] for r in rs):.2f}"
                  f" µs" for layer in LAYERS) + "; calls: " + ", ".join(
                  f"{layer} {v['calls']:,}"
                  for layer, v in rs[0]["layers"].items()))
    was = statistics.median(b["isa"] / b["ma"] for b in runs[first])
    labels = {"isa": "ISA", "ma": "pipeline"}
    for name in rest:
        ups = []
        for what, xs in ratios[name].items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            ups.append(f"{labels.get(what, what)} {statistics.median(xs):.3f}x"
                       f" [{q1:.3f}-{q3:.3f}]")
        now = statistics.median(r["isa"] / r["ma"] for r in runs[name])
        print(f"{name} over {first} (median [quartiles] of "
              f"{len(ratios[name]['isa'])} parts taken in turn): "
              + ", ".join(ups)
              + f"; median ratio {was:.1f}x -> {now:.1f}x ({now - was:+.1f}x)")
    differ = {layer: max(r["layers"][layer]["differ"]
                         for rs in runs.values() for r in rs)
              for layer in LAYERS}
    for name in rest:
        cross = [r["against"] for r in runs[name]]
        if cross[0] is None:  # the first tree's own record
            continue
        if isinstance(cross[0], str):
            print(f"{name}: {first}'s record does not unpickle here "
                  f"({cross[0]}); each tree replayed only its own")
            continue
        worst = {}
        for layer in LAYERS:
            raised = [c[layer] for c in cross if isinstance(c[layer], str)]
            if raised:
                print(f"{name}: {first}'s {layer} record does not replay "
                      f"here ({raised[0]})")
            else:
                worst[layer] = max(c[layer] for c in cross)
        if worst:
            print(f"{name} on {first}'s record: differing results: "
                  + ", ".join(f"{layer} {n}" for layer, n in worst.items()))
        for layer, n in worst.items():
            differ[layer] = max(differ[layer], n)
    print("differing results: " + ", ".join(
        f"{layer} {n}" for layer, n in differ.items()))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
