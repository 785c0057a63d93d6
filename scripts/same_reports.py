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
  of that name;
- `run P --machine M`, with and without `--trace`, for each bundled
  program P (read from the second tree) on each machine M;
- `demo meltdown` and `demo spectre`;
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
                for path in replays.values() for as_json in ([], ["--json"])]
        programs = sorted(glob.glob(os.path.join(
            os.path.abspath(args.src[1]), "teasim", "programs", "*.asm")))
        runs += [["run", prog, "--machine", machine] + trace
                 for prog in programs for machine in ("isa", "ma", "ma-h")
                 for trace in ([], ["--trace"])]
        runs += [["demo", "meltdown"], ["demo", "spectre"],
                 ["check", "--suite", "nope"], ["check", "--trials", "-1"]]
        for argv in runs:
            compare(argv, [run(src, cwd, argv)
                           for src, cwd in zip(args.src, cwds)])

    print(f"{differ} of {total} runs differ ({args.trials} trials, "
          f"seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
