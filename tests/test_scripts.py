"""The scripts run: the layer-cost and shrink-cost tools end to end, and
every other script as far as its `--help`."""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(script: pathlib.Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script), *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)


def test_scripts_run():
    # One round of one pass over one seed's recording: the tool records,
    # measures and replays.  Its rates depend on the host and are not
    # asserted; its replayed results must be the recorded ones.
    out = run_script(SCRIPTS / "step_rates.py", "src", "-n", "1", "-k", "1",
                     "--seeds", "1")
    assert out.returncode == 0, out.stderr
    assert ("differing results: step_core 0, next_h 0, derive_choice 0"
            in out.stdout.splitlines())
    for script in sorted(SCRIPTS.glob("*.py")):
        if script.name not in ("step_rates.py", "shrink_costs.py"):
            help_ = run_script(script, "--help")
            assert help_.returncode == 0, (script.name, help_.stderr)


def test_step_rates_replays_the_first_trees_record(tmp_path):
    # Each tree records its own calls and replays them, and a second
    # tree whose records unpickle replays the first tree's too.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_script(SCRIPTS / "step_rates.py", "src", str(tmp_path / "src"),
                     "-n", "1", "-k", "1", "--seeds", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert (f"{tmp_path / 'src'} on src's record: differing results: "
            "step_core 0, next_h 0, derive_choice 0") in lines
    assert "differing results: step_core 0, next_h 0, derive_choice 0" in lines


def test_shrink_costs_runs():
    # The tool wraps gen.shrink positionally.  One tree twice: the same
    # runs, so the same totals.
    out = run_script(SCRIPTS / "shrink_costs.py", "src", "src", "--seeds", "1",
                     "--trials", "20")
    assert out.returncode == 0, out.stderr
    old, new = out.stdout.splitlines()[-2:]
    assert old.startswith("src: checked ") and old == new
