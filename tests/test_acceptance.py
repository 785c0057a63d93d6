"""Acceptance criteria, one test per criterion at the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line
per criterion.  Budgets follow the stated sample counts; every check
is exact (zero tolerated failures) except the throughput floors.
"""

import random
import time
from dataclasses import replace

from teasim import asm
from teasim.asm import Program
from teasim.cli import suite_reports
from teasim.gen import (
    ACCESSIBLE_TOP,
    Case,
    GenConfig,
    _below,
    case_pair,
    gen_entangled_case,
    report_json,
    seed_cache,
)
from teasim.isa import MASK32, Instr, isa_det_step, label, run_isa
from teasim.ma import ma_step, man_step, maximal_choice, run_ma, step_core
from teasim.refine import Finding, r_ic, run_ic, stutter_wit
from teasim.variants import init_h, is_entangled, mah_step

from conftest import trial_rng

SEED = 20260808


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_attack_reproduction():
    t0 = time.time()
    cfg = GenConfig(seed=SEED, trials=300)  # within the <= 5000 budget

    buggy = suite_reports("meltdown-buggy", cfg)
    melt_tea = sum(r.tea_count for r in buggy)
    assert melt_tea >= 1, "no transient-execution counterexample found"

    spect = suite_reports("spectre-buggy", cfg)
    spect_viol = sum(
        1
        for r in spect
        for f in r.failures
        if any(x.obligation == "action-soundness" for x in f.findings)
    )
    assert spect_viol >= 1, "no cache-action violation found"

    safe = suite_reports("meltdown-safe", cfg)
    safe_tea = sum(r.tea_count for r in safe)
    safe_all = sum(len(r.failures) for r in safe)
    assert safe_tea == 0 and safe_all == 0

    dt = time.time() - t0
    assert dt < 1800, "attack suites exceeded the 30-minute budget"
    report("1 attack-reproduction",
           f"meltdown-buggy TEA={melt_tea}, spectre-buggy action "
           f"violations={spect_viol}, meltdown-safe TEA=0 ({dt:.0f}s)")


def test_criterion_2_entangled_obligations():
    cfg = GenConfig(seed=SEED)
    fails = {"maximal": 0, "projection": 0, "initial": 0, "closure": 0}
    for i in range(1000):
        case = gen_entangled_case(cfg, trial_rng("acc2", i))
        s, h = case_pair(case)
        if ma_step(s) != man_step(s, maximal_choice(s)):
            fails["maximal"] += 1
        if mah_step(s, h)[0] != ma_step(s):
            fails["projection"] += 1
        s0 = asm.emit_ma(case.program)
        if not is_entangled(s0, init_h(s0)):
            fails["initial"] += 1
        u, hu, _ = mah_step(s, h)
        if not is_entangled(u, hu):
            fails["closure"] += 1
    assert fails == {k: 0 for k in fails}, fails
    report("2 entangled-obligations", "1000 samples x 4 checks, 0 failures")


def test_criterion_3_replay_identity():
    cfg = GenConfig(seed=SEED + 1, max_forward_steps=50)
    bad = 0
    for i in range(1000):
        s, h = case_pair(gen_entangled_case(cfg, trial_rng("acc3", i)))
        if not is_entangled(s, h):
            bad += 1
    assert bad == 0
    report("3 replay-identity", "1000 trajectories (up to 50 steps), "
                                "invalidate-and-replay exact, 0 failures")


def test_criterion_4_architectural_oracle():
    cfg = GenConfig(seed=SEED + 2, include_in_cache=False,
                    include_kernel=False)
    compared = mismatches = 0
    for i in range(500):
        case = gen_entangled_case(cfg, trial_rng("acc4", i))
        isa = asm.emit_isa(case.program)
        for _ in range(3000):
            if isa.halt:
                break
            isa = isa_det_step(isa)
        if not isa.halt:
            continue  # non-terminating: no final state to compare
        ma, _ = run_ma(asm.emit_ma(case.program), 60_000)
        compared += 1
        if not ma.halt or label(r_ic(ma)) != label(isa):
            mismatches += 1
    assert mismatches == 0
    assert compared >= 400, f"only {compared} terminating programs"
    report("4 architectural-oracle",
           f"{compared}/500 terminating programs, projections equal, "
           f"0 mismatches")


def test_criterion_5_witness_well_foundedness():
    cfg = GenConfig(seed=SEED + 3, include_in_cache=False)
    noncommit = commit = 0
    i = 0
    while (noncommit < 10_000 or commit < 1_000) and i < 5_000:
        case = gen_entangled_case(cfg, trial_rng("acc5", i))
        i += 1
        s, h = case_pair(replace(case, forward_steps=0))
        for _ in range(200):
            if s.halt:
                break
            u, info = step_core(s)
            if info.retired == 0 and noncommit < 10_000:
                noncommit += 1
                d_s, d_u = stutter_wit(s), stutter_wit(u)
                assert d_s is not None and d_u is not None, "stutter cap hit"
                assert d_u < d_s, "stutter witness failed to decrease"
            elif info.retired > 0 and commit < 1_000:
                commit += 1
                v, fail = run_ic(s, info.batch)
                assert fail is None, fail
                assert label(r_ic(u)) == label(v), "matched run disagrees"
            s, h, _ = mah_step(s, h)
    assert noncommit >= 10_000 and commit >= 1_000
    report("5 witness-well-foundedness",
           f"{noncommit} non-committing transitions decreased, "
           f"{commit} committing transitions matched, 0 failures")


# A probe of `in-cache` on an inaccessible address, which acceptance
# criterion 6 runs.  It is no property: the ISA's `in-cache` tests the
# access map first and seeded caches hold only accessible lines, so it
# cannot fail.

def gen_incache_case(cfg: GenConfig, rng: random.Random) -> Case:
    """A probe of a random inaccessible address, with a seeded cache."""
    top = ACCESSIBLE_TOP
    kernel = top + 1 + _below(rng, 1 << 16)
    split = _below(rng, kernel + 1)
    instrs = (
        Instr("loadi", rd=1, imm=split),
        Instr("loadi", rd=2, imm=(kernel - split) & MASK32),
        Instr("in-cache", rd=3, r1=1, r2=2),
        Instr("halt"),
    )
    data = ((_below(rng, top + 1), _below(rng, 99)),)
    prog = Program(0, instrs, data, ((0, top),), 0)
    return Case(prog, 0, seed_cache(prog, rng))


def check_incache_case(case: Case) -> list[Finding]:
    s = asm.emit_isa(case.program)._replace(cache=dict(case.seed_cache))
    s, _ = run_isa(s, 8)
    if s.rf[3] != 0:
        return [Finding("incache-constraint", "functional",
                        "in-cache returned 1 for an inaccessible address")]
    return []


def test_criterion_6_in_cache_constraint():
    cfg = GenConfig(seed=SEED + 4)
    for i in range(10_000):
        case = gen_incache_case(cfg, trial_rng("acc6", i))
        assert check_incache_case(case) == []
    report("6 in-cache-constraint",
           "10000 inaccessible probes all returned 0")


def test_criterion_7_throughput():
    prog = asm.load_bundled("primality")
    isa0, ma0 = asm.emit_isa(prog), asm.emit_ma(prog)

    def rate(step, s0, n):
        s, k = s0, 0
        t0 = time.perf_counter()
        while k < n:
            if s.halt:
                s = s0
            s = step(s)
            k += 1
        return n / (time.perf_counter() - t0)

    isa_rate = rate(isa_det_step, isa0, 200_000)
    ma_rate = rate(ma_step, ma0, 20_000)
    ratio = isa_rate / ma_rate
    assert isa_rate >= 200_000, f"ISA rate {isa_rate:,.0f}/s"
    assert ma_rate >= 10_000, f"MA rate {ma_rate:,.0f}/s"
    assert ratio >= 10, f"ratio {ratio:.1f}"
    report("7 throughput",
           f"ISA {isa_rate:,.0f}/s, MA {ma_rate:,.0f}/s, ratio {ratio:.1f}x")


def test_criterion_8_deterministic_reports():
    cfg = GenConfig(seed=SEED + 5, trials=60)
    docs = []
    for _ in range(2):
        reports = suite_reports("spectre-buggy", cfg)
        docs.append(report_json(reports, "spectre-buggy"))
    assert docs[0] == docs[1]
    cfg2 = GenConfig(seed=SEED + 5, trials=40)
    docs2 = [report_json(suite_reports("entangled", cfg2), "entangled")
             for _ in range(2)]
    assert docs2[0] == docs2[1]
    report("8 deterministic-reports",
           "same-seed check runs produced byte-identical reports")
