"""teasim verdict-time benchmark.

Usage, from the root of a checkout holding src/teasim:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in a closed loop: `teasim check` verdicts run one after
another, each starting when the previous one has finished, in a single
single-threaded process started cold for the run.  All times are host
time, scaled to nominal host speed by probes of a fixed loop around each
sample; the model has no reference hardware results, so it is
unvalidated and no accuracy figure is given.  The workloads and the known answer of
each verdict are in workloads.py, the reasons for them in README.md.

--trace 0 prints the end-to-end metrics (median set-up, verdict and
first-counterexample times, peak memory).  --trace 1 runs a fixed number
of verdicts twice, untraced and then traced, each in its own process,
and prints the per-layer metrics from the tracer plus the tracing
overhead.  Every verdict's exit code and report are checked against the
workload's known answer; a mismatch is a failed operation.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import SPAN_NAMES
from worker import REFERENCE_NOMINAL_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 15  # set-up repetitions per measuring process; the median is reported
DEADLINE_S = 170  # a run must end within 180 s
STEP_CORE_PARENTS = (
    "variants.mah_step", "refine.check_wsk", "refine.check_wsk_a",
    "refine.stutter_wit", "refine.auth", "variants.is_entangled",
    "gen.generate", "gen.check",
)
DIGESTS = os.path.join(HERE, ".state", "digests.json")


def spawn(job: dict, deadline: float) -> dict:
    """Run one measuring process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_fingerprint(root: str) -> str:
    """Hash of the program's sources, standing in for the commit."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def digest_conflicts(root: str, w, verdicts: list[dict]) -> int:
    """Verdicts whose report digest differs from an earlier run of the
    same sources and check command.  Digests persist in the benchmark's
    state directory of this checkout."""
    try:
        with open(DIGESTS) as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = {}
    fp = source_fingerprint(root)
    conflicts = 0
    for v in verdicts:
        key = f"{fp}:{w.suite}:{w.trials}:{v['seed']}"
        if seen.setdefault(key, v["sha256"]) != v["sha256"]:
            conflicts += 1
            print(f"  DIGEST MISMATCH check seed {v['seed']}: {v['sha256']} "
                  f"differs from {seen[key]} of an earlier run")
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(seen, fh)
    os.replace(tmp, DIGESTS)
    return conflicts


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p / 100 * len(ranked)) - 1)] if ranked else 0.0


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None


def at_nominal_speed(samples: list[dict]) -> list[float]:
    """Sample times scaled to nominal host speed: each is multiplied by
    the reference loop's nominal time over its time around that sample.
    The host's speed switches by up to 1.6x from one second or minute to
    the next, and the loop, which no change to teasim can move, switches
    with it."""
    return [s["seconds"] * REFERENCE_NOMINAL_S / s["ref_s"] for s in samples]


def median_at_nominal_speed(samples: list[dict]) -> float:
    return statistics.median(at_nominal_speed(samples))


def timing_line(name: str, samples: list[dict], what: str) -> str:
    values = at_nominal_speed(samples)
    raw = statistics.median(s["seconds"] for s in samples)
    speed = REFERENCE_NOMINAL_S / statistics.median(s["ref_s"] for s in samples)
    line = (f"  {name:<15} {statistics.median(values):.6g} s  median of {len(values)} "
            f"{what} at nominal host speed (raw {raw:.6g} s, host at {speed:.3f}x)")
    hp = high_percentile(values)
    if hp:
        line += f", p{hp[0]} {hp[1]:.6g} s"
    return line


def print_digests(verdicts: list[dict]) -> None:
    for v in verdicts:
        print(f"  digest check seed {v['seed']}: sha256 {v['sha256']}"
              f"  exit {v['exit']}  {'ok' if v['ok'] else 'WRONG VERDICT'}")


def timed_run(root: str, w, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    res = spawn({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                 "setups": SETUPS}, deadline)
    verdicts, cexes = res["verdicts"], res["first_cex"]
    # On a clean workload no counterexample exists: the first answer the
    # user gets is the clean verdict itself.
    cex_samples = cexes or verdicts
    errors = sum(not v["ok"] for v in verdicts) + sum(not c["ok"] for c in cexes)
    print(timing_line("setup_s", res["setup_s"], "set-ups"))
    print(timing_line("verdict_s", verdicts, "verdicts"))
    print(timing_line("first_cex_s", cex_samples,
                      "first-counterexample runs" if cexes else "clean verdicts"))
    print(f"  {'peak_rss_mb':<15} {res['peak_rss_mb']:.6g} MB  1 process")
    print_digests(verdicts)
    errors += digest_conflicts(root, w, verdicts)
    print(f"  {'verdict_errors':<15} {errors} count  of {len(verdicts) + len(cexes)} runs")
    metrics = {
        "setup_s": (median_at_nominal_speed(res["setup_s"]), "s"),
        "verdict_s": (median_at_nominal_speed(verdicts), "s"),
        "first_cex_s": (median_at_nominal_speed(cex_samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {"attempted": len(verdicts) + len(cexes), "failed": errors, "metrics": metrics}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, verdicts: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from a tracer summary and the traced verdicts.
    An absent span reads as zero calls and is counted in trace.absent_spans;
    a ratio over a zero base reads 0."""
    spans = trace["spans"]
    out = {}
    for s in SPAN_NAMES:
        out[f"{s}.calls"] = (spans[s]["calls"], "count")
        out[f"{s}.total_s"] = (spans[s]["total_s"], "s")
        out[f"{s}.self_s"] = (spans[s]["self_s"], "s")
    core = spans["ma.step_core"]
    by_parent = trace["parents"].get("ma.step_core", {})
    for p in STEP_CORE_PARENTS:
        out[f"ma.step_core.from.{p}"] = (by_parent.get(p, 0), "count")
    out["ma.step_core.from.other"] = (
        sum(n for p, n in by_parent.items() if p not in STEP_CORE_PARENTS), "count")
    out["ma.step_core.us"] = (ratio(core["total_s"], core["calls"]) * 1e6, "us")
    out["ma.step_core.walk_share"] = (
        ratio(by_parent.get("variants.mah_step", 0), core["calls"]), "ratio")
    out["refine.stutter_wit.steps"] = (by_parent.get("refine.stutter_wit", 0), "count")
    out["refine.auth.lookahead_steps"] = (by_parent.get("refine.auth", 0), "count")
    out["variants.replay_steps"] = (by_parent.get("variants.is_entangled", 0), "count")
    out["gen.shrink.candidates"] = (trace["shrink_tried"], "count")
    out["gen.shrink.hit_ratio"] = (ratio(trace["shrink_hits"], trace["shrink_tried"]), "ratio")
    out["gen.check.trial_ms.p50"] = (percentile(trace["trial_ms"], 50), "ms")
    out["gen.check.trial_ms.p95"] = (percentile(trace["trial_ms"], 95), "ms")
    out["gen.trials_run"] = (sum(v["trials_run"] for v in verdicts), "count")
    out["gen.random_tea_hits"] = (sum(v["random_tea_hits"] for v in verdicts), "count")
    checks = spans["refine.check_wsk"]["calls"] + spans["refine.check_wsk_a"]["calls"]
    out["refine.retiring_share"] = (ratio(spans["refine.run_ic"]["calls"], checks), "ratio")
    out["trace_overhead_s"] = (overhead_s, "s")
    out["trace.absent_spans"] = (len(trace["absent"]), "count")
    out["trace.verdicts"] = (len(verdicts), "count")
    return out


def traced_run(root: str, w, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    job = {"workload": w.name, "seed": args.seed, "verdicts": w.traced_verdicts, "setups": 1}
    plain = spawn(job, deadline)
    traced = spawn(dict(job, trace=True), deadline)
    overhead = (median_at_nominal_speed(traced["verdicts"])
                - median_at_nominal_speed(plain["verdicts"]))
    runs = plain["verdicts"] + traced["verdicts"]
    errors = sum(not v["ok"] for v in runs)
    for a, b in zip(plain["verdicts"], traced["verdicts"]):
        if a["sha256"] != b["sha256"]:
            errors += 1
            print(f"  DIGEST MISMATCH check seed {a['seed']}: traced report differs")
    print_digests(plain["verdicts"])
    errors += digest_conflicts(root, w, plain["verdicts"])
    trace = traced["trace"]
    metrics = layer_metrics(trace, traced["verdicts"], overhead)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    spans = trace["spans"]
    print(f"  bases: ma.step_core.calls {spans['ma.step_core']['calls']}, "
          f"gen.shrink.candidates {trace['shrink_tried']}, "
          f"refine.check_wsk+check_wsk_a calls "
          f"{spans['refine.check_wsk']['calls'] + spans['refine.check_wsk_a']['calls']}, "
          f"trial checks {len(trace['trial_ms'])}")
    for s in trace["absent"]:
        print(f"  span {s}: absent (no such function in this version)")
    print(f"  {'verdict_errors':<40} {errors} count  of {len(runs)} verdicts")
    return {"attempted": len(runs), "failed": errors, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "teasim")):
        print(f"error: {root} holds no src/teasim; run from the root of a "
              "teasim checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    print(f"workload {w.name}: teasim check --suite {w.suite} --trials {w.trials} "
          f"--json, check seeds {args.seed}*1000+j; closed loop, 1 caller, "
          f"cold process, host time scaled to nominal host speed")
    result = (traced_run if args.trace else timed_run)(root, w, args)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
