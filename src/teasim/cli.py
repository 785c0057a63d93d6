"""Command-line front end.

Subcommands: `run` simulates a program on either machine, `check` runs
the obligation suites, `demo` walks the two bundled attacks, and
`check --replay` re-verifies a counterexample bundle.

Exit codes: 0 success / all checks passed, 1 counterexamples found,
2 usage or internal error, 3 step budget exhausted.  A usage error that
the argument parser finds is reported like any other, in one `error: …`
line, and `main` returns 2; only `--help` leaves by `SystemExit`.

`main` may be called repeatedly in one process: the argument parser is
built once, on the first call, and holds no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import asm
from .gen import (Case, GenConfig, PROPERTIES, Report, check_spectre_case,
                  report_json, run_property)
from .isa import run_isa
from .ma import MaParams, run_ma, step_core
from .variants import init_h, mah_step

SUITES: dict[str, list[str]] = {
    "entangled": ["entangled"],
    "meltdown-buggy": ["wsk"],
    "meltdown-safe": ["wsk-safe"],
    "spectre-buggy": ["spectre"],
    "all": ["entangled", "wsk", "wsk-safe", "spectre", "arch-equivalence"],
}

# Bundled seed programs per property, checked before the random trials.
PROP_SEEDS: dict[str, list[str]] = {
    "wsk": ["meltdown"],
    "spectre": ["spectre"],
}


def _parse_params(path: str | None, overrides: list[str]) -> MaParams:
    items = [("--param", item) for item in overrides]  # (where, text)
    if path:
        with open(path) as fh:
            lines = [(f"{path} line {n}", line.split("#", 1)[0].strip())
                     for n, line in enumerate(fh, start=1)]
        items = [x for x in lines if x[1]] + items
    kv: dict[str, str] = {}
    for where, item in items:
        k, sep, v = item.partition("=")
        if not sep:
            raise ValueError(f"{where}: expected key=value, got {item!r}")
        kv[k.strip()] = v.strip()
    fields = {}
    for k, v in kv.items():
        k = k.replace("-", "_")
        if k == "prefetch":
            toks = v.split()
            fields["prefetch"] = tuple(toks[:1] + [int(x) for x in toks[1:]])
        elif k in MaParams.__dataclass_fields__:
            fields[k] = int(v)
        else:
            raise ValueError(f"unknown parameter {k!r}")
    return MaParams(**fields)


def cmd_run(args) -> int:
    from . import snapshot  # only `run` prints states

    try:
        params = _parse_params(args.params, args.param)
        with open(args.program) as fh:
            prog = asm.parse(fh.read(), params.reg_count)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.machine == "isa":
        s, _ = run_isa(asm.emit_isa(prog, params.reg_count), args.max_steps)
        print(snapshot.isa_to_text(s), end="")
        return 0 if s.halt else 3

    s = asm.emit_ma(prog, params)
    h = init_h(s) if args.machine == "ma-h" else None
    for _ in range(args.max_steps):
        if s.halt:
            break
        if h is None:
            nxt, info = step_core(s)
        else:
            nxt, h, info = mah_step(s, h)
        if args.trace:
            delta = {a: v for a, v in nxt.cache.items() if s.cache.get(a) != v}
            print(snapshot.trace_record(s.cyc, info, delta))
        s = nxt
    print(snapshot.ma_to_text(s), end="")
    if h is not None:
        print(snapshot.history_to_text(h), end="")
    return 0 if s.halt else 3


def suite_reports(suite: str, cfg: GenConfig) -> list[Report]:
    reports = []
    for prop in SUITES[suite]:
        seeds = tuple(
            Case(asm.load_bundled(name)) for name in PROP_SEEDS.get(prop, [])
        )
        reports.append(run_property(prop, cfg, extra_cases=seeds))
    return reports


def cmd_check(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; have "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return 2
    if args.replay:
        return _replay_bundle(args.replay, args.json)
    seed = args.seed
    if seed is None:
        env = os.environ.get("TEA_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            print(f"error: TEA_SEED must be an integer, got {env!r}",
                  file=sys.stderr)
            return 2
    if args.bundle_dir:
        try:
            os.makedirs(args.bundle_dir, exist_ok=True)
        except OSError as e:
            print(f"error: cannot write bundles to {args.bundle_dir}: {e}",
                  file=sys.stderr)
            return 2
    cfg = GenConfig(seed=seed, trials=args.trials)
    reports = suite_reports(args.suite, cfg)
    if args.json:
        print(report_json(reports, args.suite))
    else:
        _print_human(reports, args.suite)
    if args.bundle_dir:
        _write_bundles(reports, args.bundle_dir, args.suite)
    return 1 if any(r.failures for r in reports) else 0


def _print_human(reports: list[Report], suite: str) -> None:
    print(f"suite {suite}")
    for r in reports:
        print(f"  {r.prop}: {r.trials} trials, {len(r.failures)} failing case(s), "
              f"{r.tea_count} transient-execution, {r.functional_count} functional")
        for f in r.failures[:5]:
            head = f.findings[0]
            print(f"    trial {f.trial}: [{head.obligation}/{head.kind}] {head.detail}")


def _write_bundles(reports: list[Report], outdir: str, suite: str) -> None:
    """One bundle per failing case: its report failure entry, plus the
    property that failed; outdir exists."""
    for r in reports:
        for entry in r.to_dict()["failures"]:
            path = os.path.join(outdir, f"{suite}-{r.prop}-{entry['trial']}.bundle")
            with open(path, "w") as fh:
                json.dump({**entry, "property": r.prop}, fh, indent=2,
                          sort_keys=True)
                fh.write("\n")


def _replay_bundle(path: str, as_json: bool) -> int:
    try:
        with open(path) as fh:
            record = json.load(fh)
        if type(record) is not dict:
            raise ValueError(f"a bundle is a JSON object, got {type(record).__name__}")
        prop_name = record["property"]
        case = Case.from_dict(record)
    except KeyError as e:
        print(f"error: cannot replay {path}: missing field {e}", file=sys.stderr)
        return 2
    except (OSError, TypeError, ValueError) as e:
        print(f"error: cannot replay {path}: {e}", file=sys.stderr)
        return 2
    if not isinstance(prop_name, str) or prop_name not in PROPERTIES:
        print("error: bundle names no known property", file=sys.stderr)
        return 2
    findings = PROPERTIES[prop_name].check(case)
    doc = {
        "schema": "teasim-replay/1",
        "property": prop_name,
        "findings": [f.to_dict() for f in findings],
    }
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if findings:
            for f in findings:
                print(f"[{f.obligation}/{f.kind}] {f.detail}")
        else:
            print("bundle no longer fails")
    return 1 if findings else 0


def cmd_demo(args) -> int:
    prog = asm.load_bundled(args.attack)
    ma, _ = run_ma(asm.emit_ma(prog), args.max_steps)
    isa, _ = run_isa(asm.emit_isa(prog), args.max_steps)
    if not (ma.halt and isa.halt):
        print(f"step budget exhausted: a run did not halt within "
              f"{args.max_steps} steps")
        return 3

    if args.attack == "meltdown":
        secret = dict(prog.data)[4096]
        print(f"planted kernel byte:            {secret}")
        print(f"pipeline run recovered (r10):   {ma.rf[10]}"
              f"   kernel line cached (r7): {ma.rf[7]}")
        print(f"architectural run (r10):        "
              f"{'none' if isa.rf[10] == 0xFFFFFFFF else isa.rf[10]}"
              f"   kernel line cached (r7): {isa.rf[7]}")
        ok = ma.rf[10] == secret and isa.rf[10] == 0xFFFFFFFF
        print("exfiltration " + ("succeeded on the pipeline, impossible "
                                 "architecturally" if ok else "UNEXPECTED"))
        return 0 if ok else 2

    # A walk starts at cycle 0, so a finding's step is its cycle.
    audit = [f for f in check_spectre_case(Case(prog))
             if f.obligation == "action-soundness"][:3]
    for f in audit:
        print(f"cycle {f.step}: {f.detail}")
    print(f"pipeline cache after run:      "
          + ", ".join(f"{a:#x}" for a in sorted(ma.cache)))
    print(f"architectural cache after run: "
          + (", ".join(f"{a:#x}" for a in sorted(isa.cache)) or "(empty)"))
    ok = bool(audit) and not isa.cache
    print("speculative fills are unauthorized under the commit-time "
          "policy" if ok else "UNEXPECTED")
    return 0 if ok else 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for `main` to report as one `error: …` line,
    instead of printing argparse's usage block and exiting.  Subparsers
    are built with the same class."""

    def error(self, message: str):
        raise _UsageError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teasim")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="simulate a program")
    p.add_argument("program")
    p.add_argument("--machine", choices=["isa", "ma", "ma-h"], default="ma")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--params", help="key=value parameter file")
    p.add_argument("--param", action="append", default=[],
                   help="single key=value override")

    p = sub.add_parser("check", help="run obligation suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int)  # None: TEA_SEED, else 0
    p.add_argument("--json", action="store_true")
    p.add_argument("--bundle-dir", help="write counterexample bundles here")
    p.add_argument("--replay", help="re-verify a counterexample bundle")

    p = sub.add_parser("demo", help="walk a bundled attack")
    p.add_argument("attack", choices=["meltdown", "spectre"])
    p.add_argument("--max-steps", type=int, default=100_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for opt in ("trials", "max_steps"):  # the counts a command takes
        n = getattr(args, opt, 0)
        if n < 0:
            print(f"error: --{opt.replace('_', '-')} must be at least 0, "
                  f"got {n}", file=sys.stderr)
            return 2
    fn = {"run": cmd_run, "check": cmd_check, "demo": cmd_demo}[args.cmd]
    try:
        return fn(args)
    except Exception as e:  # internal error: distinct exit code
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
