"""Seeded pipeline and history mutants that a clean verdict must not
survive.

Each mutant is a fixture (in conftest.py) that monkeypatches one
function or table of `teasim.ma`, or `variants.next_h`, and its test
names the suite or property that must report it within a fixed trial
budget and seed; the unmutated machine is clean on the same trials.
"""

import json
import re

import pytest

from teasim import asm, cli, gen
from teasim.isa import run_isa
from teasim.refine import AUTH_SPECS, check_wsk_transition

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
    code, doc = check_json(capsys, "all")
    assert code == 1
    assert first_failure(doc, "arch-equivalence") == (0, {"wsk-match"})


# arch-equivalence's trial budget, and the trial of its first failure at
# SEED under each mutant, with that failure's obligations.
ARCH_TRIALS = 100
ARCH_KILLS = [("and_computes_or", 26, {"wsk-match"}),
              ("jumps_do_not_squash", 92, {"wsk-run"})]


def arch_failures(max_failures: int) -> tuple:
    cfg = gen.GenConfig(seed=SEED, trials=ARCH_TRIALS,
                        max_failures=max_failures)
    return gen.run_property("arch-equivalence", cfg).failures


def test_unmutated_machine_passes_arch_equivalence():
    assert arch_failures(10) == ()


@pytest.mark.parametrize("mutant, trial, obligations", ARCH_KILLS)
def test_arch_equivalence_kills_mutant(request, mutant, trial, obligations):
    request.getfixturevalue(mutant)
    (fail,) = arch_failures(1)
    assert fail.trial == trial
    assert {f.obligation for f in fail.findings} == obligations


# entangled's trial budget at SEED, and the trial of its first failure
# under the history mutant, which replay's check of the `wr-b` tags kills.
ENTANGLED_TRIALS = 300


def entangled_failures() -> tuple:
    cfg = gen.GenConfig(seed=SEED, trials=ENTANGLED_TRIALS, max_failures=1)
    return gen.run_property("entangled", cfg).failures


def test_unmutated_machine_passes_entangled():
    assert entangled_failures() == ()


def test_entangled_kills_writeback_as_delay(writeback_as_delay):
    (fail,) = entangled_failures()
    assert fail.trial == 0
    assert {f.obligation for f in fail.findings} == {"entangled-sample"}


# A kernel-free loop that never halts: comparing the two machines' end
# states has nothing to compare, but the walk checks every step.
LOOP = "loadi r1 3\nloadi r2 5\nloadi r8 1\nand r3 r1 r2\njge r8 -1\n"


def test_arch_equivalence_checks_a_run_that_never_halts(request):
    prog = asm.parse(LOOP)
    assert not run_isa(asm.emit_isa(prog), 2000)[0].halt
    check = gen.PROPERTIES["arch-equivalence"].check
    assert check(gen.Case(prog)) == []
    request.getfixturevalue("and_computes_or")
    found = check(gen.Case(prog))
    assert len(found) == 8
    assert {f.obligation for f in found} == {"wsk-match"}


def walk_kinds(name: str, max_steps: int, observable: bool,
               spec) -> list[str]:
    """The kinds of the findings of the property's walks on its trials,
    which must be the reference walk's."""
    prop = gen.PROPERTIES[name]
    cfg = prop.adjust(gen.GenConfig(seed=SEED, trials=TRIALS))
    out = []
    for i in range(TRIALS):
        case = prop.gen(cfg, gen._trial_rng(SEED, name, i))
        found = prop.check(case)
        assert found == reference_walk(case, max_steps, observable, spec)
        out += [f.kind for f in found]
    return out


# Each walk's id names its property, step limit and policy.
WALKS = [pytest.param("wsk-safe", 2500, False, None, id="wsk-safe-2500-None"),
         pytest.param("spectre", 400, True, AUTH_SPECS["commit"],
                      id="spectre-400-auth_commit")]


@pytest.mark.parametrize("name, max_steps, observable, spec", WALKS)
def test_stall_mutant_walks_match_reference(stall, name, max_steps,
                                            observable, spec):
    assert "liveness" in walk_kinds(name, max_steps, observable, spec)


@pytest.mark.parametrize("name, max_steps, observable, spec", WALKS)
def test_stale_forwarding_mutant_walks_match_reference(
        stale_forwarding, name, max_steps, observable, spec):
    assert "functional" in walk_kinds(name, max_steps, observable, spec)


# Kernel-free programs that draw `in-cache`, walked under r_a without an
# audit: the matched run steps each committed in-cache deterministically
# on the pipeline's cache, so its answer is checked, not rejected.  The
# trial budget, and the trial at which the always-1 mutant is first
# found.
IC_TRIALS, IC_KILL = 300, 4


def wsk_a_step(s, u, info, wit, run):
    return check_wsk_transition(s, u, info, wit, True)


def wsk_a_failures(trials: int) -> list[tuple[int, set[str]]]:
    """(trial, obligations) of each of the first `trials` kernel-free
    in-cache walks under r_a with a finding."""
    cfg = gen.GenConfig(seed=SEED, include_kernel=False)
    out = []
    for i in range(trials):
        case = gen.gen_walk_case(cfg, gen._trial_rng(SEED, "spectre", i))
        found = {f.obligation for f in gen._walk(case, wsk_a_step, 400)}
        if found:
            out.append((i, found))
    return out


def test_unmutated_machine_matches_in_cache_under_r_a():
    assert wsk_a_failures(IC_TRIALS) == []


def test_in_cache_always_one_mutant_fails_wsk_a_match(in_cache_always_one):
    assert wsk_a_failures(IC_KILL + 1)[0] == (IC_KILL, {"wsk-a-match"})


# Under r_ic an in-cache that answers 1 for a kernel line is a Meltdown
# only if the pipeline's cache holds that line.  The always-1 mutant's
# `wsk` failures at SEED in WSK_TRIALS trials are programs such as
# `loadi r2 131 ; in-cache r0 r2 r1`, which load nothing.
WSK_TRIALS, WSK_FAILS = 100, [-1, 64, 85, 88]


def meltdown_failures() -> tuple:
    cfg = gen.GenConfig(seed=SEED, trials=WSK_TRIALS)
    bundled = gen.Case(asm.load_bundled("meltdown"))
    return gen.run_property("wsk", cfg, extra_cases=(bundled,)).failures


def test_unmutated_bundled_meltdown_is_tea_meltdown():
    (fail,) = meltdown_failures()
    assert fail.trial == -1
    assert fail.findings[0].kind == "tea-meltdown"


def test_in_cache_always_one_mutant_makes_no_meltdown(in_cache_always_one):
    fails = meltdown_failures()
    assert [f.trial for f in fails] == WSK_FAILS
    assert {x.kind for f in fails for x in f.findings} == {"functional"}
    detail = fails[1].findings[0].detail
    assert detail.endswith("which the pipeline's cache does not hold")


# A user load, then an in-cache of the line it filled, which answers 1.
IN_CACHE_BUNDLE = {
    "property": "spectre", "forward_steps": 0, "seed_cache": [],
    "program": ".access 0 511\n.data 16 7\nloadi r1 16\nloadi r2 0\n"
               "ldr r3 r1 r2\nin-cache r4 r1 r2\nhalt\n",
}


def test_spectre_bundle_with_in_cache_replays_clean(tmp_path, capsys):
    path = tmp_path / "in-cache.bundle"
    path.write_text(json.dumps(IN_CACHE_BUNDLE))
    assert cli.main(["check", "--replay", str(path)]) == 0
    assert capsys.readouterr().out == "bundle no longer fails\n"


# The shrunk bundled Meltdown, replayed under r_a: the audit finds the
# speculative fill of the kernel line, and the in-cache that answers 1
# for it is a Meltdown under r_a as under r_ic.
MELTDOWN_BUNDLE = {
    "property": "spectre", "forward_steps": 0, "seed_cache": [],
    "program": ".access 0 511\n.data 4096 57\nloadi r1 4096\nloadi r2 0\n"
               "loadi r9 0\ntsx-start 5\nldri r3 r1 0\nin-cache r7 r1 r0\n",
}


def test_spectre_bundle_with_kernel_in_cache_is_a_meltdown(tmp_path, capsys):
    path = tmp_path / "meltdown.bundle"
    path.write_text(json.dumps(MELTDOWN_BUNDLE))
    assert cli.main(["check", "--replay", str(path)]) == 1
    assert capsys.readouterr().out == (
        "[action-soundness/tea-spectre] unauthorized lines 0x1000\n"
        "[wsk-a-run/tea-meltdown] in-cache observed a cached kernel address "
        "0x1000; no architectural cache choice allows it\n")


# Differential testing of the two refinement maps: r_ic (`check_wsk_case`)
# and r_a (`check_spectre_case`) refine one specification, so on the same
# cases they must not disagree about the machine.  CROSS_TRIALS `wsk`
# trials at SEED, whose trial 445 is a random Meltdown, and the bundled
# Meltdown.
CROSS_TRIALS = 450
HEX = re.compile(r"0x[0-9a-f]+")


def cross_cases():
    cfg = gen.GenConfig(seed=SEED)
    for i in range(CROSS_TRIALS):
        yield i, gen.gen_walk_case(cfg, gen._trial_rng(SEED, "wsk", i))
    yield -1, gen.Case(asm.load_bundled("meltdown"))


def test_both_maps_agree_on_the_unmutated_machine():
    """No functional or liveness finding under either map, and every
    r_ic Meltdown has a TEA finding under r_a on the same kernel line,
    at the same step or earlier."""
    random_meltdowns = 0
    for trial, case in cross_cases():
        ic, a = gen.check_wsk_case(case), gen.check_spectre_case(case)
        assert {f.kind for f in ic + a} <= {"tea-meltdown", "tea-spectre"}
        for f in ic:
            if f.kind == "tea-meltdown":
                random_meltdowns += trial >= 0
                line = HEX.search(f.detail).group()
                assert any(g.kind.startswith("tea-") and g.step <= f.step
                           and line in HEX.findall(g.detail) for g in a)
    assert random_meltdowns >= 1


# Each catalogue mutant, the trial budget at SEED, and the first trial
# at which r_ic and r_a each make a non-TEA finding.
KILL_TRIALS = 300
CROSS_KILLS = [("stall", 3, 3), ("stale_forwarding", 4, 4),
               ("and_computes_or", 19, 19), ("in_cache_always_one", 64, 1),
               ("jumps_do_not_squash", 75, 75)]


def first_kills() -> list[int | None]:
    """The first trial of the `wsk` stream at SEED with a non-TEA finding
    under r_ic and under r_a; each map stops at its first."""
    cfg = gen.GenConfig(seed=SEED)
    first: list[int | None] = [None, None]
    for i in range(KILL_TRIALS):
        case = gen.gen_walk_case(cfg, gen._trial_rng(SEED, "wsk", i))
        for k, check in enumerate((gen.check_wsk_case,
                                   gen.check_spectre_case)):
            if first[k] is None and any(not f.kind.startswith("tea-")
                                        for f in check(case)):
                first[k] = i
        if None not in first:
            break
    return first


@pytest.mark.parametrize("mutant, ic, a", CROSS_KILLS)
def test_r_a_kills_each_mutant_no_later_than_r_ic(request, mutant, ic, a):
    request.getfixturevalue(mutant)
    assert first_kills() == [ic, a] and a <= ic
