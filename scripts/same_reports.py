#!/usr/bin/env python3
"""Whether two source trees give byte-identical CLI output.

A change that claims to keep every report as it was is held to this
beside tests/test_golden.py, which pins one run.  Every tree runs, each
in a fresh `python -m teasim.cli` process started in a working
directory of its own:

- `check --suite S --trials N --seed K --json --bundle-dir D` for each
  suite and each seed of a grid, comparing the bundle files written
  to D (their names and bytes) as well as the output;
- `check --replay B` and `check --replay B --json` for each distinct
  bundle B that the second tree wrote, each tree replaying its own file
  of that name, and for four fixed bundles written into each tree's
  working directory: two `entangled` ones, whose samples lie 10,000
  steps into the run (no check writes one, since that property finds
  nothing), one of a program that loops, one of a program that halts
  within 10 steps; and two `spectre` ones whose committed `in-cache`
  the matched run under r_a checks (no suite reaches that branch), a
  clean one and one whose probe of a kernel line is a `wsk-a-run`
  Meltdown;
- `run P --machine M`, with and without `--trace`, for each bundled
  program P (read from the second tree) on each machine M, and
  `run P --machine ma-h --max-steps 15`, which stops each P mid-flight:
  every P halts, and a halt leaves an empty history to print;
- `run P --machine ma-h --max-steps 20` on a one-wide fetch with two
  stations and a 2-line ROB, whose pipeline also empties without a
  squash, so that the window of such a history is printed too;
- `run P --machine ma-h --trace` on three non-default machines (a
  one-wide fetch with two stations and a 4-line ROB, a `stride 2 2`
  prefetcher, no prefetcher), so that the stride and none prefetch
  rules, a full ROB and a two-station machine are compared too;
- `demo meltdown` and `demo spectre`, and each with a step budget
  too small for its runs to halt (`--max-steps 30` and `18`);
- two usage errors, `check --suite nope` and `check --trials -1`.

The script prints the SHA-256 digest of stdout and stderr (and of the
bundles) and the exit code of every run that differs between the trees,
then a count, and exits 1 if any differs.

    python scripts/same_reports.py OLD/src src
    python scripts/same_reports.py OLD/src src --seeds 1 2 3 --trials 200
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile


def run(src: str, cwd: str, argv: list[str]) -> tuple[str, int]:
    """(digest of stdout and stderr, exit code) of the CLI from one tree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    p = subprocess.run([sys.executable, "-m", "teasim.cli", *argv],
                       env=env, cwd=cwd, capture_output=True)
    out = hashlib.sha256(p.stdout + b"\0" + p.stderr).hexdigest()
    return out, p.returncode


def read_files(path: str) -> dict[str, bytes]:
    """Name -> bytes of each file in a directory, in sorted name order
    (none if the directory is absent)."""
    out = {}
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else []:
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def files_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# Fixed bundles -> (property, forward steps, program text).  The
# `entangled` samples lie far past the halt-probe's horizon on a run that
# never halts, and on one that does.  The `spectre` runs each commit an
# `in-cache` that r_a's matched run reads: of a user line a load filled
# (clean), and of a kernel line before a rolled-back transaction's load
# fills it (a Meltdown under r_a's kernel-line rule).
FIXED_BUNDLES = {
    "entangled-loop.bundle":
        ("entangled", 10_000, "loadi r1 2\naddi r2 r2 1\njg r1 -1\nhalt\n"),
    "entangled-halt.bundle":
        ("entangled", 10_000, "loadi r1 2\naddi r2 r1 1\nhalt\n"),
    "spectre-in-cache.bundle":
        ("spectre", 0, ".access 0 127\n.data 4 9\nloadi r1 4\nldri r2 r1 0\n"
                       "in-cache r3 r1 r0\nhalt\n"),
    "spectre-kernel-in-cache.bundle":
        ("spectre", 0, ".org 1\n.access 0 127\n.data 128 57\n.entry 1\n"
                       "in-cache r0 r1 r3\nloadi r1 128\ntsx-start 0\n"
                       "ldri r0 r1 0\nhalt\n"),
}


def write_fixed_bundles(cwd: str) -> None:
    for name, (prop, forward_steps, program) in FIXED_BUNDLES.items():
        with open(os.path.join(cwd, name), "w") as fh:
            json.dump({"property": prop, "program": program,
                       "forward_steps": forward_steps, "seed_cache": []}, fh)


def suite_names(src: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", "from teasim.cli import SUITES; print(*SUITES)"],
        env=env, check=True, capture_output=True, text=True).stdout
    return out.split()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs=2, help="the two source trees")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    differ = total = 0

    def compare(argv: list[str], got: list[tuple]) -> None:
        nonlocal differ, total
        total += 1
        if got[0] != got[1]:
            differ += 1
            print(" ".join(argv) + ":")
            for src, (*digests, code) in zip(args.src, got):
                print(f"  {src}: {' '.join(digests)} exit {code}")

    with tempfile.TemporaryDirectory() as tmp:
        cwds = [os.path.join(tmp, str(i)) for i in range(2)]
        for cwd in cwds:
            os.mkdir(cwd)
            write_fixed_bundles(cwd)
        # Each distinct bundle the second tree wrote -> its first path,
        # relative to each tree's working directory.
        replays: dict[bytes, str] = {}
        for suite in suite_names(args.src[1]):
            for seed in args.seeds:
                out = f"bundles-{suite}-{seed}"
                argv = ["check", "--suite", suite, "--trials", str(args.trials),
                        "--seed", str(seed), "--json", "--bundle-dir", out]
                got = []
                for src, cwd in zip(args.src, cwds):
                    digest, code = run(src, cwd, argv)
                    files = read_files(os.path.join(cwd, out))
                    got.append((digest, files_digest(files), code))
                compare(argv, got)
                for name, data in files.items():
                    replays.setdefault(data, os.path.join(out, name))

        runs = [["check", "--replay", path] + as_json
                for path in [*replays.values(), *FIXED_BUNDLES]
                for as_json in ([], ["--json"])]
        programs = sorted(glob.glob(os.path.join(
            os.path.abspath(args.src[1]), "teasim", "programs", "*.asm")))
        runs += [["run", prog, "--machine", machine] + trace
                 for prog in programs for machine in ("isa", "ma", "ma-h")
                 for trace in ([], ["--trace"])]
        runs += [["run", prog, "--machine", "ma-h", "--max-steps", "15"]
                 for prog in programs]
        runs += [["run", prog, "--machine", "ma-h", "--param", "fetch-num=1",
                  "--param", "rs-count=2", "--param", "max-rob=2",
                  "--max-steps", "20"] for prog in programs]
        machines = (["fetch-num=1", "rs-count=2", "max-rob=4"],
                    ["prefetch=stride 2 2"], ["prefetch=none"])
        runs += [["run", prog, "--machine", "ma-h", "--trace"]
                 + [x for param in machine for x in ("--param", param)]
                 for prog in programs for machine in machines]
        runs += [["demo", "meltdown"], ["demo", "spectre"],
                 ["demo", "meltdown", "--max-steps", "30"],
                 ["demo", "spectre", "--max-steps", "18"],
                 ["check", "--suite", "nope"], ["check", "--trials", "-1"]]
        for argv in runs:
            compare(argv, [run(src, cwd, argv)
                           for src, cwd in zip(args.src, cwds)])

    print(f"{differ} of {total} runs differ ({args.trials} trials, "
          f"seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
