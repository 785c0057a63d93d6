"""Seeded pipeline mutants that a clean verdict must not survive.

Each mutant is a fixture (in conftest.py) that monkeypatches one
function of `teasim.ma`, and its test names the suite that must report
it within a fixed trial budget and seed; the unmutated machine is clean
on the same trials.
"""

import json
from dataclasses import replace

import pytest

from teasim import cli, gen, ma
from teasim.refine import AUTH_SPECS, check_wsk_transition, stutter_wit

SEED, TRIALS = 1, 40


def check_json(capsys, suite: str) -> tuple[int, dict]:
    code = cli.main(["check", "--suite", suite, "--trials", str(TRIALS),
                     "--seed", str(SEED), "--json"])
    return code, json.loads(capsys.readouterr().out)


def kinds(doc: dict) -> set[str]:
    return {f["kind"] for r in doc["reports"] for fail in r["failures"]
            for f in fail["findings"]}


def test_unmutated_machine_is_clean(capsys):
    code, doc = check_json(capsys, "meltdown-safe")
    assert code == 0 and kinds(doc) == set()


def test_stall_mutant_fails_liveness(stall, capsys):
    code, doc = check_json(capsys, "meltdown-safe")
    assert code == 1 and kinds(doc) == {"liveness"}


def reference_walk(case: gen.Case, max_steps: int, spec) -> list:
    """The walk of `gen._walk` with the witness-skipping obligations,
    taking each non-retiring transition's stutter witness by a forward
    run of its own, `stutter_wit(s)`."""
    s = gen.initial_state(case)
    findings = []
    for step in range(max_steps):
        if s.halt:
            break
        u, info = ma.step_core(s)
        wit = 0 if info.retired else stutter_wit(s)
        found = check_wsk_transition(s, u, info, wit, spec)
        findings += [replace(f, step=step) for f in found]
        if len(findings) >= 8:
            break
        s = u
    return findings


@pytest.mark.parametrize("name, max_steps, spec", [
    ("wsk-safe", 2500, None),
    ("spectre", 400, AUTH_SPECS["commit"]),
])
def test_stall_mutant_walks_match_reference(stall, name, max_steps, spec):
    prop = gen.PROPERTIES[name]
    cfg = prop.adjust(gen.GenConfig(seed=SEED, trials=TRIALS))
    liveness = 0
    for i in range(TRIALS):
        case = prop.gen(cfg, gen._trial_rng(SEED, name, i))
        found = prop.check(case)
        assert found == reference_walk(case, max_steps, spec)
        liveness += sum(f.kind == "liveness" for f in found)
    assert liveness > 0
