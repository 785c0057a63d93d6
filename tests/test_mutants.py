"""Seeded pipeline mutants that a clean verdict must not survive.

Each mutant is a fixture (in conftest.py) that monkeypatches one
function of `teasim.ma`, and its test names the suite that must report
it within a fixed trial budget and seed; the unmutated machine is clean
on the same trials.
"""

import json

import pytest

from teasim import cli, gen
from teasim.refine import AUTH_SPECS

from conftest import reference_walk

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


def first_failure(doc: dict, prop: str) -> tuple[int, set[str]]:
    """The trial of a property's first failure and its obligations."""
    report = next(r for r in doc["reports"] if r["property"] == prop)
    fail = report["failures"][0]
    return fail["trial"], {f["obligation"] for f in fail["findings"]}


def test_stale_forwarding_mutant_fails_wsk_match(stale_forwarding, capsys):
    code, doc = check_json(capsys, "meltdown-safe")
    assert code == 1 and first_failure(doc, "wsk-safe") == (4, {"wsk-match"})


def test_stale_forwarding_mutant_fails_arch_equivalence(stale_forwarding,
                                                        capsys):
    # Shrinking the arch-equivalence failures accepts candidates whose
    # findings record no walk step.
    code, doc = check_json(capsys, "all")
    assert code == 1
    assert first_failure(doc, "arch-equivalence") == (0, {"arch-equivalence"})


def walk_kinds(name: str, max_steps: int, spec) -> list[str]:
    """The kinds of the findings of the property's walks on its trials,
    which must be the reference walk's."""
    prop = gen.PROPERTIES[name]
    cfg = prop.adjust(gen.GenConfig(seed=SEED, trials=TRIALS))
    out = []
    for i in range(TRIALS):
        case = prop.gen(cfg, gen._trial_rng(SEED, name, i))
        found = prop.check(case)
        assert found == reference_walk(case, max_steps, spec)
        out += [f.kind for f in found]
    return out


WALKS = [("wsk-safe", 2500, None), ("spectre", 400, AUTH_SPECS["commit"])]


@pytest.mark.parametrize("name, max_steps, spec", WALKS)
def test_stall_mutant_walks_match_reference(stall, name, max_steps, spec):
    assert "liveness" in walk_kinds(name, max_steps, spec)


@pytest.mark.parametrize("name, max_steps, spec", WALKS)
def test_stale_forwarding_mutant_walks_match_reference(
        stale_forwarding, name, max_steps, spec):
    assert "functional" in walk_kinds(name, max_steps, spec)
