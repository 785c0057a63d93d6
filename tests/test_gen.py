"""Generation quality, report determinism, shrinking soundness."""

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from teasim import asm, cli, gen, ma, refine, variants
from teasim.asm import Program
from teasim.gen import (
    Case,
    GenConfig,
    PROPERTIES,
    Property,
    case_pair,
    check_entangled_case,
    check_spectre_case,
    check_wsk_case,
    gen_entangled_case,
    gen_program,
    gen_walk_case,
    initial_state,
    report_json,
    run_property,
    shrink,
)
from teasim.isa import Instr, isa_det_step
from teasim.ma import run_ma
from teasim.refine import Finding, stutter_wit
from teasim.variants import init_h, is_entangled, mah_step

from conftest import trial_rng


def test_below_draws_as_randrange():
    # The generators draw through gen._below; it must consume the same
    # words and return the same values as randrange(n), so that every
    # stream stays as it was (tests/test_streams.py pins the cases).
    for seed in range(10):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            assert gen._below(mine, n) == ref.randrange(n), (seed, n)
        assert mine.getstate() == ref.getstate()
    with pytest.raises(ValueError):
        gen._below(random.Random(0), 0)


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
    with pytest.raises(KeyError):
        run_property("nope", GenConfig())


def test_shrink_preserves_obligation_and_reduces():
    prop = PROPERTIES["spectre"]
    case = Case(asm.load_bundled("spectre"))
    findings = prop.check(case)
    assert findings
    small = shrink(prop, case, findings[0].obligation, findings[0].step)
    after = prop.check(small)
    assert any(f.obligation == findings[0].obligation for f in after)
    assert len(small.program.instrs) <= len(case.program.instrs)


def test_shrink_meltdown_case_stays_small():
    prop = PROPERTIES["wsk"]
    case = Case(asm.load_bundled("meltdown"))
    findings = prop.check(case)
    assert findings and findings[0].kind == "tea-meltdown"
    small = shrink(prop, case, findings[0].obligation, findings[0].step)
    assert len(small.program.instrs) <= 10
    assert any(f.obligation == findings[0].obligation
               for f in prop.check(small))


# Checking, shrinking and re-checking the bundled case steps 217 and
# 1,778 times; restarting the candidate list after every success, as the
# shrinker did before it shrank in rounds of passes, stepped 301 and
# 3,658 times, and reached programs of the same sizes.  Each bound is the
# count plus 3%.  The shrink starts from the trial's first finding, as
# walking the original case once more would add 21 and 1,172 steps, and
# walking again the candidates already found passing would add 8 and 73.
BUNDLED_SHRINKS = [
    ("spectre", "spectre", 224,
     ".access 0 511\n.data 16 1\n.data 17 2\n.data 18 3\n.data 19 4\n"
     ".data 22 77\n.entry 0\njge r5 0\nldr r6 r1 r3\n"),
    ("wsk", "meltdown", 1_830,
     ".access 0 511\n.data 4096 57\n.entry 0\nloadi r1 4096\nloadi r2 0\n"
     "loadi r9 0\ntsx-start 5\nldri r3 r1 0\nin-cache r7 r1 r0\n"),
]


@pytest.mark.parametrize("name, bundled, max_steps, shrunk", BUNDLED_SHRINKS,
                         ids=[b for _, b, _, _ in BUNDLED_SHRINKS])
def test_shrink_walks_few_steps(monkeypatch, name, bundled, max_steps, shrunk):
    steps = 0

    # The walk steps through gen's binding; a policy that stepped a run
    # of its own would step through refine's.
    for module in (gen, refine):
        def counting(s, step_core=module.step_core):
            nonlocal steps
            steps += 1
            return step_core(s)

        monkeypatch.setattr(module, "step_core", counting)
    case = Case(asm.load_bundled(bundled))
    report = run_property(name, GenConfig(trials=0), extra_cases=(case,))
    assert steps <= max_steps
    assert asm.render(report.failures[0].case.program) == shrunk


@pytest.mark.parametrize("name, bundled, shrunk, checked",
                         [(n, b, s, k) for (n, b, _, s), k
                          in zip(BUNDLED_SHRINKS, (17, 51))],
                         ids=[b for _, b, _, _ in BUNDLED_SHRINKS])
def test_shrink_checks_each_passing_candidate_once(name, bundled, shrunk, checked):
    # Checking every candidate took 19 (spectre) and 58 (meltdown)
    # checks for the same result.  A candidate may be checked again, but
    # only under a larger bound.
    prop = PROPERTIES[name]
    case = Case(asm.load_bundled(bundled))
    first = prop.check(case)[0]
    calls = []

    def check(c, until=None):
        calls.append((c, until))
        return prop.check(c, until)

    small = shrink(replace(prop, check=check), case, first.obligation,
                   first.step)
    assert asm.render(small.program) == shrunk
    assert len(calls) == checked
    largest: dict[Case, int] = {}
    for c, (_, within) in calls:
        assert within > largest.get(c, -1)
        largest[c] = within


def test_shrink_skips_repeated_candidates_within_its_budget(monkeypatch):
    # The two deletions of a block of two come first.  Then deleting any
    # of the three noops gives one program, checked once; the repeats
    # still use budget, so a budget of 5 never reaches the deletion of
    # halt and a budget of 6 does.
    prog = Program(0, (Instr("noop"),) * 3 + (Instr("halt"),), (),
                   ((0, 0x7F),), 0)
    case = Case(prog)
    for budget, checked in ((5, 3), (6, 4)):
        calls = []

        def check(c):
            calls.append(c)
            return [Finding("only-original", "functional", "")] if c == case else []

        monkeypatch.setattr(gen, "SHRINK_BUDGET", budget)
        prop = Property("fake", gen_entangled_case, check)
        first = Finding("only-original", "functional", "", step=None)
        assert shrink(prop, case, "only-original", first.step) == case
        assert len(calls) == checked


def one_step_candidates(case: Case):
    """Each single-instruction deletion, forward-step rewind and immediate
    halving of a case: the candidate kinds of a shrink, one step each."""
    instrs = case.program.instrs

    def with_instrs(new):
        return case._replace(program=case.program._replace(instrs=new))

    for i in range(len(instrs)):
        yield with_instrs(instrs[:i] + instrs[i + 1:])
    steps = case.forward_steps
    for k in (0, steps // 2, steps - 1) if steps else ():
        yield case._replace(forward_steps=k)
    for i, ins in enumerate(instrs):
        if ins.imm and ins.imm < 0x1000:
            yield with_instrs(instrs[:i] + (ins._replace(imm=ins.imm // 2),)
                              + instrs[i + 1:])


@lru_cache(maxsize=None)
def spectre_failures(seed: int) -> tuple[Case, ...]:
    """The cases of the failing `spectre` trials among the first 300 at
    a seed."""
    prop = PROPERTIES["spectre"]
    cfg = prop.adjust(GenConfig(seed=seed))
    cases = (prop.gen(cfg, gen._trial_rng(seed, "spectre", i))
             for i in range(300))
    return tuple(c for c in cases if prop.check(c))


MINIMAL_SHRINKS = ([("spectre", "spectre", None), ("wsk", "meltdown", None)]
                   + [("spectre", None, i) for i in range(10)])


@pytest.mark.parametrize("name, bundled, failure", MINIMAL_SHRINKS,
                         ids=["spectre", "meltdown"]
                         + [f"seed-1-failure-{i}" for i in range(10)])
def test_shrinks_end_one_minimal(monkeypatch, name, bundled, failure):
    # The shrink stops because a round changed nothing, not because its
    # budget ran out, and no candidate of the result fails the obligation
    # within the result's own bound of 2c + 8 steps.
    ended = []
    passes = gen._passes

    def watched(best):
        yield from passes(best)
        ended.append(True)

    monkeypatch.setattr(gen, "_passes", watched)
    prop = PROPERTIES[name]
    case = (Case(asm.load_bundled(bundled)) if bundled
            else spectre_failures(1)[failure])
    first = prop.check(case)[0]
    small = shrink(prop, case, first.obligation, first.step)
    assert ended
    hit = next(f for f in prop.check(small)
               if f.obligation == first.obligation)
    until = (first.obligation, 2 * hit.step + 8)
    for cand in one_step_candidates(small):
        assert all(f.obligation != first.obligation
                   for f in prop.check(cand, until)), cand


def full_spectre_check(case: Case, until=None):
    """The `spectre` check that walks every obligation, also when a
    bounded walk looks for one."""
    return gen._walk(case, gen._spectre_step, 400, until)


@pytest.mark.parametrize("seed", [None, 1, 2, 3],
                         ids=["bundled", "seed-1", "seed-2", "seed-3"])
def test_audit_alone_shrinks_as_the_full_walk(monkeypatch, seed):
    # An unauthorized fill's candidates are walked with the audit alone,
    # which checks no transition in full, and each shrink ends where the
    # full walk's does: the bundled case, then every failing trial in
    # 300 at each seed.
    prop = PROPERTIES["spectre"]
    full = replace(prop, check=full_spectre_check)
    cases = ((Case(asm.load_bundled("spectre")),) if seed is None
             else spectre_failures(seed))
    assert len(cases) >= (1 if seed is None else 90)
    check_wsk_transition = gen.check_wsk_transition
    in_full = 0

    def counted(*args):
        nonlocal in_full
        in_full += 1
        return check_wsk_transition(*args)

    monkeypatch.setattr(gen, "check_wsk_transition", counted)
    for case in cases:
        first = prop.check(case)[0]
        assert first.obligation == "action-soundness"
        before = in_full
        small = shrink(prop, case, first.obligation, first.step)
        assert in_full == before
        assert shrink(full, case, first.obligation, first.step) == small


def test_audit_alone_finds_a_fill_past_8_other_findings(stall):
    # A mul never retires, so from step 7 on every step of the bundled
    # Spectre case fails the stutter bound.  The full walk stops at 8
    # such findings; the audit alone goes on to the unauthorized fill.
    case = Case(asm.load_bundled("spectre"))
    until = ("action-soundness", 42)
    found = gen._walk(case, gen._spectre_step, 400, until)
    assert [(f.obligation, f.kind, f.step) for f in found] == [
        ("wsk-a-match", "liveness", step) for step in range(7, 15)]
    [audit] = check_spectre_case(case, until)
    assert (audit.obligation, audit.kind, audit.step) == (
        "action-soundness", "tea-spectre", 17)


# The shrinks of `spectre`'s 103 failures at seed 1 in 300 trials step
# 6,288 times; restarting the candidate list after every success took
# 14,377 steps.  The bound is the count plus 3%.
def test_spectre_shrinks_at_seed_1_walk_few_steps(monkeypatch):
    steps = shrunk = 0
    for module in (gen, refine):
        def counting(s, step_core=module.step_core):
            nonlocal steps
            steps += 1
            return step_core(s)

        monkeypatch.setattr(module, "step_core", counting)
    shrink = gen.shrink

    def counted(*args):
        nonlocal shrunk
        before = steps
        small = shrink(*args)
        shrunk += steps - before
        return small

    monkeypatch.setattr(gen, "shrink", counted)
    cfg = GenConfig(seed=1, trials=300, max_failures=300)
    assert len(run_property("spectre", cfg).failures) == 103
    assert shrunk <= 6_480


@pytest.mark.parametrize("fail_at, accepted", [(13, True), (14, False)])
def test_shrink_bounds_walk_candidates(fail_at, accepted):
    # The original fails at step 3, so a candidate must fail within
    # 2 * 3 + 8 = 14 steps (steps 0-13).  Either candidate fails under
    # the full check.  The program is a chain of dependent addi's, and
    # every deletion leaves a shorter one: from step 2 on, the chain
    # retires its instruction at pc on step 2 * pc + 3 and none on the
    # step after, so the step can be read off the committed pc without
    # reading cyc.  Below the chain's end no state is pipeline-empty
    # after step 0, so no walk stops before it fails.
    prog = Program(0, (Instr("addi", rd=1, r1=1, imm=1),) * 30, (),
                   ((0, 0x7F),), 0)
    case = Case(prog)

    def check(c, until=None):
        at = 3 if c == case else fail_at

        def per_step(s, u, info, wit, run):
            step = 2 * s.pc + 2 + (info.retired > 0)
            return [Finding("late", "functional", "")] if step == at else []

        return gen._walk(c, per_step, 2500, until)

    assert [f.step for f in check(case)] == [3]
    cand = case._replace(program=prog._replace(instrs=prog.instrs[1:]))
    assert [f.step for f in check(cand)] == [fail_at]
    prop = Property("fake", gen_walk_case, check)
    small = shrink(prop, case, "late", check(case)[0].step)
    assert (small != case) == accepted


def test_shrink_accepts_candidates_of_non_walk_properties():
    # Their findings record no step, so no step bound is taken from them.
    prog = Program(0, (Instr("noop"),) * 3 + (Instr("halt"),), (),
                   ((0, 0x7F),), 0)

    def check(c):
        return [Finding("always", "functional", "")]

    prop = Property("fake", gen_walk_case, check)
    first = Finding("always", "functional", "", step=None)
    assert shrink(prop, Case(prog), "always", first.step).program.instrs == ()


@pytest.mark.parametrize("kind", ["halts", "max-steps", "until", "stall",
                                  "audit"])
def test_walk_witness_is_stutter_wit(request, kind):
    # The witness the walk hands to per_step is stutter_wit(s), also on
    # the tail of a walk cut off by max_steps or by until's bound, whose
    # look-ahead runs past the walk's last step, and when the commit
    # policy's audit has read the run further ahead than the witness.
    if kind == "stall":
        request.getfixturevalue("stall")
    check = gen._spectre_step if kind == "audit" else gen._wsk_step
    wits = []

    def per_step(s, u, info, wit, run):
        assert wit == stutter_wit(s)
        wits.append(wit)
        return check(s, u, info, wit, run)

    cfg = GenConfig(seed=38, include_in_cache=False)
    cases = [gen_walk_case(cfg, trial_rng("witness", i)) for i in range(30)]
    walks = [(c, 2500, None) for c in cases]  # (case, max_steps, until)
    if kind == "halts":
        walks = [w for w in walks if run_ma(initial_state(w[0]), 300)[0].halt]
    elif kind == "max-steps":
        walks = [(c, 10, None) for c in cases]
    elif kind == "until":
        # Bounded walks, and one stopped at its first wsk-run failure.
        walks = [(c, 2500, ("wsk-run", 10)) for c in cases]
        meltdown = Case(asm.load_bundled("meltdown"))
        walks.append((meltdown, 2500, ("wsk-run", None)))
    elif kind == "audit":
        walks = [(c, 400, None) for c in cases]
        walks.append((Case(asm.load_bundled("spectre")), 400, None))
    for case, max_steps, until in walks:
        found = gen._walk(case, per_step, max_steps, until)
    assert len(walks) >= 10 and len(wits) >= 200
    if kind == "stall":
        assert None in wits
    if kind == "until":
        assert found[-1].obligation == "wsk-run"


def test_lookahead_pop_moves_the_run_one_transition_on(monkeypatch):
    s = initial_state(Case(asm.load_bundled("spectre")))
    calls = []

    def counting(x):
        calls.append(x)
        return ma.step_core(x)

    monkeypatch.setattr(gen, "step_core", counting)
    # A fresh run steps once.
    assert gen.Lookahead(s).pop() == ma.step_core(s)
    assert calls == [s]
    # A recorded transition is popped without stepping.
    run = gen.Lookahead(s)
    third = run[3]
    first = run[0]
    calls.clear()
    u, info = run.pop()
    assert (u, info) == first and calls == []
    assert len(run.steps) == 3 and run[2] is third
    assert run.state is u and run[0] == ma.step_core(u)


def test_walk_and_entangled_cases_draw_the_same():
    cfg = GenConfig(seed=37)
    for i in range(50):
        walk = gen_walk_case(cfg, trial_rng("draws", i))
        sample = gen_entangled_case(cfg, trial_rng("draws", i))
        assert walk.forward_steps == 0
        assert (walk.program, walk.seed_cache) == (sample.program, sample.seed_cache)


def test_shrink_spends_at_most_its_budget():
    # Only the original fails, so no candidate is accepted and the
    # budget runs out among the deletions (129 of blocks of 100 down to
    # 3, then single ones), which are all distinct.
    prog = Program(0, tuple(Instr("loadi", rd=1, imm=i) for i in range(199))
                   + (Instr("halt"),), (), ((0, 0x7F),), 0)
    case = Case(prog, forward_steps=3)
    checked = []

    def check(c):
        checked.append(c)
        return [Finding("only-original", "functional", "")] if c == case else []

    prop = Property("fake", gen_entangled_case, check)
    first = Finding("only-original", "functional", "", step=None)
    assert shrink(prop, case, "only-original", first.step) == case
    assert len(checked) == 150


def test_seeded_initial_state_entangled_with_empty_history():
    prog = Program(0, (Instr("ldri", rd=1, r1=0, imm=4), Instr("halt")),
                   ((4, 9),), ((0, 0x7F),), 0)
    case = Case(prog, 0, (4,))
    s = initial_state(case)
    assert s.cache == frozenset({4})
    assert is_entangled(s, init_h(s))
    assert case_pair(case) == (s, init_h(s))


def test_bundle_pairs_each_seeded_line_with_its_memory_value():
    # A case holds line addresses; its bundle writes each with the value
    # data memory gives it, and reading the bundle checks that value.
    prog = asm.parse(".access 0 127\n.data 4 9\nhalt\n")
    d = Case(prog, 0, (4,)).to_dict()
    assert d["seed_cache"] == [[4, 9]]
    assert Case.from_dict(d).seed_cache == (4,)


def test_failures_replayable_from_case():
    cfg = GenConfig(seed=35, trials=60)
    rep = run_property("spectre", cfg)
    assert rep.failures
    f = rep.failures[0]
    again = PROPERTIES["spectre"].check(f.case)
    assert [x.obligation for x in again] == [x.obligation for x in f.findings]


def test_walks_build_no_history(monkeypatch, fresh_run):
    # The per-transition properties step the plain machine; building a
    # history on the way would be work that nothing reads.
    def no_history(*args):
        raise AssertionError("a per-transition walk built a history")

    monkeypatch.setattr("teasim.variants.next_h", no_history)
    monkeypatch.setattr(gen, "next_h", no_history)
    melt = check_wsk_case(Case(asm.load_bundled("meltdown")))
    assert any(f.kind == "tea-meltdown" for f in melt)
    spectre = check_spectre_case(Case(asm.load_bundled("spectre")))
    assert any(f.obligation == "action-soundness" for f in spectre)


# --- one recorded run per entangled case ---

def reference_pair(case: Case):
    """The (state, history) pair by running the history-carrying machine
    from the initial state, reading no recorded run."""
    s = initial_state(case)
    h = init_h(s)
    for _ in range(case.forward_steps):
        if s.halt:
            break
        s, h, _ = mah_step(s, h)
    return s, h


def reference_entangled_case(cfg: GenConfig, rng) -> Case:
    """gen_entangled_case with its halt probe run by run_ma."""
    case = gen_walk_case(cfg, rng)
    x, live = run_ma(initial_state(case), cfg.max_forward_steps)
    if x.halt:
        live -= 1
    if live > 0 and rng.random() < 0.8:
        k = rng.randint(1, live)
    else:
        k = rng.randint(0, cfg.max_forward_steps)
    return case._replace(forward_steps=k)


def recorded(case: Case):
    return gen._run(case._replace(forward_steps=0)).steps


def test_case_pair_reads_the_probed_run(fresh_run):
    # Every sample up to the probe's horizon is folded from the recorded
    # run without a new entry.
    cfg = GenConfig(seed=40)
    for i in range(30):
        case = gen_entangled_case(cfg, trial_rng("shared-run", i))
        misses = gen._run.cache_info().misses
        for k in range(cfg.max_forward_steps + 1):
            sample = case._replace(forward_steps=k)
            assert case_pair(sample) == reference_pair(sample)
        assert gen._run.cache_info().misses == misses


def recorded_to_halt(case: Case):
    """The case's recorded run, checked to hold no step past a halt."""
    steps = recorded(case)
    assert not any(u.halt for u, _ in list(steps)[:-1])
    return steps


def test_case_pair_past_the_recorded_end(fresh_run):
    # Beyond the horizon, and beyond a halt, the machine steps on and
    # the recorded run grows with the read, up to its halt.
    cfg = GenConfig(seed=41, max_forward_steps=12)
    past = halted = 0
    for i in range(30):
        case = gen_entangled_case(cfg, trial_rng("past-end", i))
        steps = recorded(case)
        n = len(steps)
        ends_halted = bool(steps) and steps[-1][0].halt
        for k in (n + 1, n + 7, 200):
            sample = case._replace(forward_steps=k)
            assert case_pair(sample) == reference_pair(sample)
            steps = recorded_to_halt(case)
            assert len(steps) >= k or steps[-1][0].halt
        past += n == cfg.max_forward_steps and not ends_halted
        halted += ends_halted
    assert past >= 5 and halted >= 5


def test_case_pair_on_a_cold_memo(fresh_run):
    cfg = GenConfig(seed=42)
    for i in range(10):
        case = gen_entangled_case(cfg, trial_rng("cold", i))
        gen._run.cache_clear()
        assert case_pair(case) == reference_pair(case)
        steps, k = recorded_to_halt(case), case.forward_steps
        assert len(steps) == k or steps[-1][0].halt and len(steps) < k


def test_a_halted_run_is_recorded_to_its_halt(fresh_run):
    # Reading past a halt returns the halted state's step and keeps
    # nothing.
    cfg = GenConfig(seed=47)
    halted = 0
    for i in range(30):
        case = gen_entangled_case(cfg, trial_rng("halted", i))
        run = gen._run(case._replace(forward_steps=0))
        live = len(run.steps) - 1
        if not run.steps[-1][0].halt:
            continue
        halted += 1
        stop = run.steps[-1][0]
        assert run[live + 5] == ma.step_core(stop)
        assert run[live + 5][0] is stop
        assert len(run.steps) == live + 1
    assert halted >= 10


def test_check_after_another_case_was_generated(fresh_run):
    # gen(A), gen(B), check(A): A's run was evicted by B's and is
    # rebuilt, with the same findings as right after gen(A).
    cfg = GenConfig(seed=43)
    for i in range(10):
        a = gen_entangled_case(cfg, trial_rng("evict-a", i))
        want = check_entangled_case(a)
        gen_entangled_case(cfg, trial_rng("evict-b", i))
        assert case_pair(a) == reference_pair(a)
        assert check_entangled_case(a) == want


def squashes(s, steps):
    """(s, h, info, u) at each invalidating transition of a recorded run
    from s, h being the history folded from init_h(s) up to it."""
    h = init_h(s)
    out = []
    for u, info in steps:
        if info.invalidated:
            out.append((s, h, info, u))
        h = variants.next_h(s, h, info, u)
        s = u
    return out


def deterministic_run(s, limit):
    """The transitions of the deterministic run from s, to halt or limit."""
    steps = []
    while len(steps) < limit and not s.halt:
        steps.append(ma.step_core(s))
        s = steps[-1][0]
    return steps


def test_a_squash_reads_nothing_of_its_history(fresh_run):
    # case_pair starts its fold at the last squash before the sample,
    # handing it init_h of the state it starts from: on every squash of
    # the bundled programs' runs and of 200 generated cases' recorded
    # runs, that gives the history the full fold gives.
    runs = []
    for name in ("meltdown", "spectre", "primality"):
        s = initial_state(Case(asm.load_bundled(name)))
        runs.append((s, deterministic_run(s, 3000)))
    cfg = GenConfig(seed=50)
    for i in range(200):
        case = gen_entangled_case(cfg, trial_rng("squash", i))
        run = gen._run(case._replace(forward_steps=0))
        runs.append((run.state, run.steps))
    seen = 0
    for s0, steps in runs:
        for s, h, info, u in squashes(s0, steps):
            assert variants.next_h(s, h, info, u) == \
                variants.next_h(s, init_h(s), info, u)
            seen += 1
    assert seen >= 200


def test_entangled_folds_often_start_past_step_0(monkeypatch, fresh_run):
    # At seed 7, 42 of the first 200 entangled samples have a squash in
    # their recorded run, so their fold starts past the initial state.
    folded = []  # the states case_pair folds from, in order

    def next_h(s, h, info, u):
        folded.append(s)
        return variants.next_h(s, h, info, u)

    monkeypatch.setattr(gen, "next_h", next_h)
    cfg = GenConfig(seed=7)
    late = 0
    for i in range(200):
        case = gen_entangled_case(cfg, gen._trial_rng(7, "entangled", i))
        s0 = gen._run(case._replace(forward_steps=0)).state
        folded.clear()
        assert case_pair(case) == reference_pair(case)
        late += bool(folded) and folded[0] is not s0
    assert late >= 30


@pytest.mark.parametrize("order", [(40,), (60,), (60, 40), (40, 60), (20, 12)],
                         ids=["40", "60", "60-40", "40-60", "20-12"])
def test_probe_draws_as_run_ma_probe(fresh_run, order):
    # The same forward steps as a run_ma probe at each horizon, also
    # when the recorded run is longer than the horizon (60, then 40;
    # 20, then 12).
    for i in range(40):
        for horizon in order:
            cfg = GenConfig(seed=44, max_forward_steps=horizon)
            got = gen_entangled_case(cfg, trial_rng("probe", i))
            want = reference_entangled_case(cfg, trial_rng("probe", i))
            assert got == want


def test_entangled_verdict_step_budget(monkeypatch, fresh_run, capsys):
    # Each transition of a sample's run is computed once: by the halt
    # probe, whose record case_pair reads, and one property draws and
    # checks entangled cases.  Running the case again cost 783 step_core
    # calls on this verdict, and a second such property 564.  The check
    # reads a sample's successor off that record when the probe reached
    # it, and otherwise steps it once: 280 calls; stepping every
    # successor again costs 18 more.
    calls = 0
    step_core = ma.step_core

    def counting(*args):
        nonlocal calls
        calls += 1
        return step_core(*args)

    for mod in (ma, gen, variants, refine):
        for key, value in list(vars(mod).items()):
            if value is step_core:
                monkeypatch.setattr(mod, key, counting)
    argv = ["check", "--suite", "entangled", "--trials", "20", "--seed", "3"]
    assert cli.main(argv) == 0
    assert 0 < calls <= 280
