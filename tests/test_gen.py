"""Generation quality, report determinism, shrinking soundness."""

from teasim import asm
from teasim.asm import Program
from teasim.gen import (
    Case,
    GenConfig,
    PROPERTIES,
    Property,
    case_pair,
    check_action_writeback_case,
    check_spectre_case,
    check_wsk_case,
    gen_entangled_case,
    gen_program,
    initial_state,
    report_json,
    run_property,
    shrink,
)
from teasim.isa import Instr, isa_det_step
from teasim.refine import Finding
from teasim.variants import init_h, is_entangled

from conftest import trial_rng


def test_generated_programs_assemble():
    cfg = GenConfig(seed=31)
    for i in range(100):
        p = gen_program(cfg, trial_rng("gen-asm", i))
        asm.emit_ma(p)
        asm.emit_isa(p)


def test_kernel_boundary_bias():
    # Across many generated programs, a healthy share of executed loads
    # must target inaccessible addresses.
    cfg = GenConfig(seed=32)
    loads = faults = 0
    for i in range(300):
        p = gen_program(cfg, trial_rng("gen-bias", i))
        s = asm.emit_isa(p)
        for _ in range(64):
            if s.halt:
                break
            instr = s.imem.get(s.pc)
            if instr and instr.op in ("ldri", "ldr"):
                ea = (s.rf[instr.r1] +
                      (instr.imm if instr.op == "ldri" else s.rf[instr.r2]))\
                    & 0xFFFFFFFF
                loads += 1
                faults += not s.ga.allows(ea)
            s = isa_det_step(s)
    assert loads > 200
    assert faults / loads >= 0.10, f"fault rate {faults}/{loads}"


def test_entangled_samples_mostly_live():
    cfg = GenConfig(seed=33)
    nonempty = 0
    for i in range(200):
        s, _ = case_pair(gen_entangled_case(cfg, trial_rng("gen-live", i)))
        nonempty += bool(s.rob)
    assert nonempty / 200 > 0.5


def test_reports_deterministic():
    cfg = GenConfig(seed=34, trials=25)
    a = run_property("spectre", cfg)
    b = run_property("spectre", cfg)
    assert report_json([a], "x") == report_json([b], "x")


def test_unknown_property_rejected():
    import pytest
    with pytest.raises(KeyError):
        run_property("nope", GenConfig())


def test_shrink_preserves_obligation_and_reduces():
    prop = PROPERTIES["spectre"]
    case = Case(asm.load_bundled("spectre"))
    findings = prop.check(case)
    assert findings
    small = shrink(prop, case, findings[0].obligation)
    after = prop.check(small)
    assert any(f.obligation == findings[0].obligation for f in after)
    assert len(small.program.instrs) <= len(case.program.instrs)


def test_shrink_meltdown_case_stays_small():
    prop = PROPERTIES["wsk"]
    case = Case(asm.load_bundled("meltdown"))
    findings = prop.check(case)
    assert findings and findings[0].kind == "tea-meltdown"
    small = shrink(prop, case, findings[0].obligation)
    assert len(small.program.instrs) <= 10
    assert any(f.obligation == findings[0].obligation
               for f in prop.check(small))


def test_shrink_spends_at_most_its_budget():
    # Only the original fails, so no candidate is accepted and the
    # budget runs out among the 200 deletions.
    prog = Program(0, (Instr("noop"),) * 199 + (Instr("halt"),), (),
                   ((0, 0x7F),), 0)
    case = Case(prog, forward_steps=3)
    checked = []

    def check(c):
        checked.append(c)
        return [Finding("only-original", "functional", "")] if c == case else []

    prop = Property("fake", gen_entangled_case, check)
    assert shrink(prop, case, "only-original") == case
    assert len(checked) == 150


def test_seeded_initial_state_entangled_with_empty_history():
    prog = Program(0, (Instr("ldri", rd=1, r1=0, imm=4), Instr("halt")),
                   ((4, 9),), ((0, 0x7F),), 0)
    case = Case(prog, 0, ((4, 9),))
    s = initial_state(case)
    assert s.cache == {4: 9}
    assert is_entangled(s, init_h(s))
    assert case_pair(case) == (s, init_h(s))


def test_failures_replayable_from_case():
    cfg = GenConfig(seed=35, trials=60)
    rep = run_property("spectre", cfg)
    assert rep.failures
    f = rep.failures[0]
    again = PROPERTIES["spectre"].check(f.case)
    assert [x.obligation for x in again] == [x.obligation for x in f.findings]


def test_walks_build_no_history(monkeypatch):
    # The per-transition properties step the plain machine; building a
    # history on the way would be work that nothing reads.
    def no_history(*args):
        raise AssertionError("a per-transition walk built a history")

    monkeypatch.setattr("teasim.variants._update_history", no_history)
    melt = check_wsk_case(Case(asm.load_bundled("meltdown")))
    assert any(f.kind == "tea-meltdown" for f in melt)
    spectre = check_spectre_case(Case(asm.load_bundled("spectre")))
    assert any(f.obligation == "action-soundness" for f in spectre)
    safe = GenConfig(seed=36, include_in_cache=False, include_kernel=False)
    for i in range(5):
        case = gen_entangled_case(safe, trial_rng("no-history", i))
        assert check_action_writeback_case(case) == []
