"""One measuring process of the benchmark, started by run.py.

Usage: python3 perfbench/worker.py JOB_JSON, from the root of a checkout
holding src/teasim.  It times set-up, then runs `teasim check` verdicts
in-process through the public CLI entry point (its `--json` report is
captured, hashed and checked against the workload's known answer), and
prints one JSON line with every raw measurement.

Job keys: workload, seed, setups (set-up repetitions), and either
seconds (time-boxed verdicts, with a first-counterexample run after
every third one on workloads that have one) or verdicts (a fixed count,
for the traced pass and its untraced twin), plus trace (install the
tracer).  Every timed sample carries `ref_s`, the host-speed probe's
time around it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from workloads import WORKLOADS, check_seed, random_tea_hits, trials_run, verdict_ok

# A first-counterexample run follows every third verdict, so its samples
# spread over the run.  Its input is the bundled seed program, checked
# before any random trial, so fewer samples suffice than for verdicts.
FIRST_CEX_EVERY = 3
# The host-speed probe, and its time on the nominal host (a 2-vCPU
# 2.1 GHz x86 VM running Python 3.11).
REFERENCE_LOOPS = 25_000
REFERENCE_NOMINAL_S = 0.005
MODULES = ("isa", "ma", "variants", "refine", "asm", "gen", "cli")


def setup_once(src: str, suite: str, trials: int) -> tuple[float, dict]:
    """Fresh import of teasim, the suite's bundled seed programs
    assembled, and the check config built; returns seconds and modules."""
    for name in [m for m in sys.modules if m == "teasim" or m.startswith("teasim.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {"teasim": importlib.import_module("teasim")}
    for name in MODULES:
        mods[name] = importlib.import_module("teasim." + name)
    cli, asm, gen = mods["cli"], mods["asm"], mods["gen"]
    for prop in cli.SUITES[suite]:
        for prog in cli.PROP_SEEDS.get(prop, []):
            asm.load_bundled(prog)
    gen.GenConfig(trials=trials)
    dt = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(mods["teasim"].__file__))
    if where != os.path.join(src, "teasim"):
        raise SystemExit(f"teasim imported from {where}, not from {src}")
    return dt, mods


def verdict(mods: dict, w, seed: int) -> dict:
    argv = ["check", "--suite", w.suite, "--trials", str(w.trials),
            "--seed", str(seed), "--json"]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = mods["cli"].main(argv)
    dt = time.perf_counter() - t0
    text = out.getvalue()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    max_failures = mods["gen"].GenConfig().max_failures
    return {
        "seed": seed,
        "seconds": dt,
        "exit": rc,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "ok": verdict_ok(w, rc, doc),
        "trials_run": sum(trials_run(r["failures"], r["trials"], max_failures)
                          for r in doc["reports"]) if doc else 0,
        "random_tea_hits": random_tea_hits(doc) if doc else 0,
    }


class _Shrunk(Exception):
    def __init__(self, case, at: float) -> None:
        super().__init__()
        self.case = case
        self.at = at


def first_cex(mods: dict, w, seed: int) -> dict:
    """Seconds until the first shrunk counterexample exists: the suite's
    properties through the public run_property with max_failures=1,
    stopped as soon as the first shrink returns."""
    cli, asm, gen = mods["cli"], mods["asm"], mods["gen"]
    cfg = gen.GenConfig(seed=seed, trials=w.trials, max_failures=1)
    shrink = gen.shrink

    def stop_after_shrink(*args, **kwargs):
        raise _Shrunk(shrink(*args, **kwargs), time.perf_counter())

    gen.shrink = stop_after_shrink
    found = None
    t0 = time.perf_counter()
    try:
        for prop in cli.SUITES[w.suite]:
            extra = tuple(gen.Case(asm.load_bundled(n)) for n in cli.PROP_SEEDS.get(prop, []))
            try:
                gen.run_property(prop, cfg, extra_cases=extra)
            except _Shrunk as hit:
                found = (prop, hit)
                break
    finally:
        gen.shrink = shrink
    if found is None:
        return {"seed": seed, "seconds": time.perf_counter() - t0, "ok": False}
    prop, hit = found
    field, value = w.finding
    still = gen.PROPERTIES[prop].check(hit.case)
    return {"seed": seed, "seconds": hit.at - t0,
            "ok": any(getattr(f, field) == value for f in still)}


@dataclass(frozen=True, slots=True)
class _Cell:
    pc: int
    regs: tuple
    mem: dict


def reference_loop() -> float:
    """Seconds one fixed pure-Python workload takes: a probe of host
    speed that no change to teasim can move.  Half of it is integer
    arithmetic and half is churn of small frozen objects, tuples and
    dicts, like teasim's own; contention slows the second kind about
    twice as much as the first, and teasim in between."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    cell = _Cell(0, (0,) * 8, {})
    for _ in range(REFERENCE_LOOPS // 20):
        k = cell.pc % 8
        mem = dict(cell.mem)
        mem[k] = acc
        regs = cell.regs[:k] + (mem.get(cell.regs[k] % 8, 0),) + cell.regs[k + 1:]
        cell = _Cell(cell.pc + 1, regs, mem)
    return time.perf_counter() - t0


class HostSpeed:
    """Brackets every sample with reference-loop probes, so run.py can
    scale it by the host speed around it.  Each probe runs for about 5%
    of the sample before it, so a long sample is matched by a long
    probe rather than by a few milliseconds of a fluctuating host."""

    def __init__(self) -> None:
        self.last = self.probe(20)

    @staticmethod
    def probe(reps: int) -> float:
        return statistics.median(reference_loop() for _ in range(reps))

    def bracket(self, sample: dict) -> dict:
        after = self.probe(max(3, round(0.05 * sample["seconds"] / self.last)))
        sample["ref_s"] = (self.last + after) / 2
        self.last = after
        return sample


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    w = WORKLOADS[job["workload"]]
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "teasim")):
        print(f"error: no teasim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    speed = HostSpeed()
    setups = []
    for _ in range(job["setups"]):
        dt, mods = setup_once(src, w.suite, w.trials)
        setups.append(speed.bracket({"seconds": dt}))

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mods)

    verdicts, cexes = [], []
    t0 = time.perf_counter()
    j = 0
    while (j < job["verdicts"] if "verdicts" in job
           else j == 0 or time.perf_counter() - t0 < job["seconds"]):
        seed = check_seed(job["seed"], j)
        verdicts.append(speed.bracket(verdict(mods, w, seed)))
        if "seconds" in job and w.finding is not None and j % FIRST_CEX_EVERY == 0:
            cexes.append(speed.bracket(first_cex(mods, w, seed)))
        j += 1

    print(json.dumps({
        "setup_s": setups,
        "verdicts": verdicts,
        "first_cex": cexes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
