"""Refinement maps, witnesses, matched runs, and the action audit."""

from teasim import asm, refine, variants
from teasim.isa import AccessMap, Instr, IsaState, label
from teasim.ma import (
    MaParams,
    RobLine,
    initial_ma_state,
    ma_step,
    retired_lines,
    run_ma,
    step_core,
)
from teasim.refine import (
    AUTH_SPECS,
    check_cache_action,
    check_entangled_sample,
    check_wsk_transition,
    r_a,
    r_ic,
    run_ic,
    stutter_wit,
)
from teasim.gen import (
    PROPERTIES,
    Case,
    GenConfig,
    Lookahead,
    _spectre_step,
    _trial_rng,
    _walk,
    case_pair,
    gen_entangled_case,
    gen_walk_case,
    initial_state,
    run_property,
)

from conftest import trial_rng

GA = AccessMap(((0, 0xFF),))


def prog_state(*instrs, dmem=None, ga=GA):
    return initial_ma_state({i: x for i, x in enumerate(instrs)},
                            dmem or {}, ga)


def walk(s):
    """The transitions (s, u, info) of the deterministic run from s."""
    while not s.halt:
        u, info = step_core(s)
        yield s, u, info
        s = u


def audit(s, u, info, spec):
    """The action audit of s -> u, its policy reading a run of its own."""
    return check_cache_action(s, u, info, spec, Lookahead(u))


class TestMaps:
    def test_r_ic_discards_pipeline_and_cache(self):
        s, _ = run_ma(prog_state(Instr("ldri", 1, 0, imm=4),
                                 Instr("halt"), dmem={4: 9}), 50)
        w = r_ic(s)
        assert isinstance(w, IsaState)
        assert w.cache == frozenset() and w.rf[1] == 9 and w.halt

    def test_r_a_keeps_cache(self):
        s, _ = run_ma(prog_state(Instr("ldri", 1, 0, imm=4),
                                 Instr("halt"), dmem={4: 9}), 50)
        assert 4 in r_a(s).cache

    def test_images_ignore_inflight_differences(self):
        s = prog_state(Instr("mul", 1, 1, 1), Instr("halt"))
        s1 = ma_step(s)
        s2 = ma_step(s1)
        assert r_ic(s1._replace(cyc=s2.cyc)) == r_ic(s1)


class TestWitnesses:
    def test_committing_state_stutter_zero(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        seen = False
        while not s.halt:
            _, info = step_core(s)
            if info.retired:
                assert stutter_wit(s) == 0
                seen = True
            s = ma_step(s)
        assert seen

    def test_fresh_pipeline_fill_latency(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        # count by independent simulation
        x, d = s, 0
        while True:
            _, info = step_core(x)
            if info.retired:
                break
            x = ma_step(x)
            d += 1
        assert stutter_wit(s) == d > 0

    def test_retired_lines_counts_instructions_not_uops(self):
        check = RobLine(0, "memi-check", None, True, 0, False)
        load = RobLine(1, "mldri", 1, True, 9, False)
        assert retired_lines((check, load)) == [load]
        fault = check._replace(excep=True)
        assert retired_lines((fault,)) == [fault]
        # Along a run, the check+load pair counts exactly once.
        s = prog_state(Instr("ldri", 1, 0, imm=4), Instr("halt"), dmem={4: 9})
        mops, count = [], 0
        while not s.halt:
            s, info = step_core(s)
            mops += [l.mop for l in retired_lines(info.batch)]
            count += info.retired
        assert mops == ["mldri", "mhalt"] and count == 2

    def test_halted_pair_trivial(self):
        s, _ = run_ma(prog_state(Instr("halt")), 50)
        assert stutter_wit(s) == 0

    def test_non_retiring_step_decreases_by_one(self):
        # Why the checker tests only the bound: the step is
        # deterministic, so the witness cannot fail to decrease.
        cfg = GenConfig(seed=15)
        checked = 0
        for i in range(30):
            s = initial_state(gen_entangled_case(cfg, trial_rng("stutter", i)))
            for n, (s, u, info) in enumerate(walk(s)):
                if n == 150:
                    break
                if info.retired:
                    continue
                d_u = stutter_wit(u)
                if d_u is not None and d_u < s.params.stutter_cap():
                    assert stutter_wit(s) == d_u + 1
                else:
                    assert stutter_wit(s) is None
                checked += 1
        assert checked >= 100


class TestRunIc:
    def test_single_add_commit_matches(self):
        s = prog_state(Instr("add", 1, 0, 0), Instr("halt"))
        for s, u, info in walk(s):
            if info.retired:
                v, fail = run_ic(s, info.batch)
                assert fail is None
                assert label(r_ic(u)) == label(v)

    def test_load_commit_matches(self):
        s = prog_state(Instr("ldri", 1, 0, imm=4), Instr("halt"), dmem={4: 9})
        for s, u, info in walk(s):
            if info.retired:
                v, fail = run_ic(s, info.batch)
                assert fail is None and label(r_ic(u)) == label(v)

    def test_meltdown_probe_is_unmatchable(self):
        case_findings = []
        s = asm.emit_ma(asm.load_bundled("meltdown"))
        for s, u, info in walk(s):
            case_findings += check_wsk_transition(s, u, info, stutter_wit(s))
            if case_findings:
                break
        assert case_findings
        assert case_findings[0].kind == "tea-meltdown"
        assert "0x1000" in case_findings[0].detail

    def test_safe_trajectories_clean(self):
        cfg = GenConfig(seed=11, include_in_cache=False)
        for i in range(25):
            s = initial_state(gen_entangled_case(cfg, trial_rng("safewsk", i)))
            count = 0
            for s, u, info in walk(s):
                assert check_wsk_transition(s, u, info, stutter_wit(s)) == []
                count += 1
                if count > 120:
                    break

    def test_small_machines_walk_clean(self):
        # No generated walk fills the default 19-line ROB; the first and
        # last of these machines fill theirs (the second, with two
        # stations, holds at most four lines in these walks).
        cfg = PROPERTIES["wsk-safe"].adjust(GenConfig(seed=1))
        full = 0
        for params in (MaParams(max_rob=4, rs_count=8),
                       MaParams(fetch_num=1, rs_count=2, max_rob=6),
                       MaParams(fetch_num=4, rs_count=8, max_rob=8,
                                prefetch=("stride", 3, 2))):
            for i in range(100):
                case = gen_walk_case(cfg, _trial_rng(1, "family", i))
                p = case.program
                s = initial_ma_state(p.imem, p.dmem, p.ga, p.entry,
                                     params=params, cache=frozenset(case.seed_cache))
                for _ in range(400):
                    if s.halt:
                        break
                    u, info = step_core(s)
                    wit = 0 if info.retired else stutter_wit(s)
                    assert check_wsk_transition(s, u, info, wit) == []
                    full += len(s.rob) == params.max_rob
                    s = u
        assert full > 0


class TestActions:
    def test_no_cache_change_empty_action(self):
        s = prog_state(Instr("add", 1, 0, 0), Instr("halt"))
        u, info = step_core(s)
        assert AUTH_SPECS["writeback"](u, info, ()) == ()

    def test_load_with_prefetch_shape(self):
        s = prog_state(Instr("ldri", 1, 0, imm=4), Instr("halt"), dmem={4: 9})
        seen = None
        while not s.halt:
            u, info = step_core(s)
            lines = AUTH_SPECS["writeback"](u, info, ())
            if lines:
                seen = lines
            s = u
        assert seen == (4, 5)

    def test_writeback_policy_covers_safe_runs(self):
        cfg = GenConfig(seed=12, include_in_cache=False, include_kernel=False)
        spec = AUTH_SPECS["writeback"]
        for i in range(20):
            s = initial_state(gen_entangled_case(cfg, trial_rng("wbpol", i)))
            for s, u, info in walk(s):
                assert audit(s, u, info, spec) is None

    def test_commit_policy_flags_transient_fills(self):
        s = asm.emit_ma(asm.load_bundled("spectre"))
        spec = AUTH_SPECS["commit"]
        flagged = []
        for s, u, info in walk(s):
            cex = audit(s, u, info, spec)
            if cex:
                flagged.append(cex.detail)
        assert len(flagged) == 2
        assert any("0x16" in d for d in flagged)       # array1 OOB slot
        assert any("0x14d" in d for d in flagged)      # array2 + secret

    def test_commit_policy_authorizes_retiring_loads(self):
        s = prog_state(Instr("ldri", 1, 0, imm=4), Instr("halt"), dmem={4: 9})
        spec = AUTH_SPECS["commit"]
        for s, u, info in walk(s):
            assert audit(s, u, info, spec) is None

    def test_commit_policy_rejects_fill_squashed_as_it_writes_back(self):
        # At cycle 3 the mispredicted jge commits and squashes while the
        # ldr (ROB tag 2) fills lines 0x0 and 0x1; the halt that commits
        # at cycle 8 reuses tag 2 but is not the load.
        s = asm.emit_ma(asm.parse(".org 2\n.access 0 127\n.entry 2\n"
                                  "jge r1 4294967294\nldr r3 r0 r2\nhalt\n"))
        spec = AUTH_SPECS["commit"]
        flagged = {s.cyc: cex.detail for s, u, info in walk(s)
                   if (cex := audit(s, u, info, spec))}
        assert flagged == {3: "unauthorized lines 0x0, 0x1"}

    def test_spectre_wsk_a_transitions(self):
        s = asm.emit_ma(asm.load_bundled("spectre"))
        kinds = set()
        for s, u, info in walk(s):
            for f in _spectre_step(s, u, info, stutter_wit(s), Lookahead(u)):
                kinds.add((f.obligation, f.kind))
        assert ("action-soundness", "tea-spectre") in kinds
        assert not any(k == "functional" for _, k in kinds)

    def test_audit_flags_every_kernel_fill(self):
        # A fill no architectural run can make is a kernel line (a
        # line's value is its memory's); the audit reports each one on
        # its own transition, so the cache-observable refinement needs
        # no check of its own.
        kernel_fills = 0

        def per_step(s, u, info, wit, run):
            nonlocal kernel_fills
            found = _spectre_step(s, u, info, wit, run)
            if any(not s.ga.allows(a) for a in u.cache - s.cache):
                kernel_fills += 1
                assert any(f.obligation == "action-soundness" for f in found)
            return found

        cfg = GenConfig(seed=16, include_in_cache=False)
        cases = [Case(asm.load_bundled("spectre"))] + [
            gen_walk_case(cfg, trial_rng("kernel-fill", i)) for i in range(300)]
        for case in cases:
            _walk(case, per_step, 400)
        assert kernel_fills >= 50

    def test_commit_policy_admits_from_the_walks_run_as_from_a_fresh_one(self):
        # The walk hands the policy its own look-ahead, which the policy
        # steps further on demand; a run stepped from u alone must give
        # the same lines.
        spec = AUTH_SPECS["commit"]
        fills = admitted = 0

        def per_step(s, u, info, wit, run):
            nonlocal fills, admitted
            lines = spec(u, info, run)
            assert lines == spec(u, info, Lookahead(u))
            fills += any(wb.inserted for wb in info.writebacks)
            admitted += bool(lines)
            return _spectre_step(s, u, info, wit, run)

        cfg = PROPERTIES["spectre"].adjust(GenConfig(seed=17))
        cases = [Case(asm.load_bundled("spectre"))] + [
            gen_walk_case(cfg, trial_rng("fold", i)) for i in range(60)]
        for case in cases:
            _walk(case, per_step, 400)
        assert fills >= 90 and admitted >= 60

    def test_audit_adds_each_authorized_accessible_line_once(self):
        def admits(*lines):
            return lambda u, info, run: lines

        def fill(s):
            return next((s, u, info) for s, u, info in walk(s)
                        if u.cache != s.cache)

        s = prog_state(Instr("add", 1, 0, 0), Instr("halt"))
        u, info = step_core(s)
        assert check_cache_action(s, u, info, admits(), ()) is None
        # A load of line 4 fills it and its prefetch line 5.
        s, u, info = fill(prog_state(Instr("ldri", 1, 0, imm=4),
                                     Instr("halt"), dmem={4: 9}))
        assert check_cache_action(s, u, info, admits(4, 4, 5), ()) is None
        cex = check_cache_action(s, u, info, admits(4, 4), ())
        assert cex.detail == "unauthorized lines 0x5"
        # A load of kernel line 0x300 fills it; authorizing it is no use.
        s, u, info = fill(prog_state(Instr("ldri", 1, 0, imm=0x300),
                                     Instr("halt"), dmem={0x300: 5}))
        cex = check_cache_action(s, u, info, admits(0x300), ())
        assert cex.detail == "unauthorized lines 0x300"

    def test_missing_line_on_a_retiring_step(self):
        # The architectural run keeps the lines it started with; a
        # pipeline that lost one disagrees with it.
        s = prog_state(Instr("ldri", 1, 0, imm=4), Instr("halt"), dmem={4: 9})
        s, u, info = next((s, u, info) for s, u, info in walk(s)
                          if any(l.mop == "mldri" for l in info.batch))
        assert 4 in s.cache
        found = check_wsk_transition(s, u._replace(cache=frozenset()), info,
                                     stutter_wit(s), observable=True)
        assert ("wsk-a-match", "functional") in {(f.obligation, f.kind)
                                                 for f in found}
        assert any("cache contents differ" in f.detail for f in found)


class TestEntangledObligations:
    def test_batch_checker_clean(self):
        samples = [case_pair(gen_entangled_case(
            GenConfig(seed=13), trial_rng("oblig", i))) for i in range(40)]
        assert [f for s, h in samples
                for f in check_entangled_sample(s, h, step_core(s))] == []

    def test_mutated_replay_detected(self, monkeypatch, fresh_run):
        # Replay that ignores the recorded station assignments must
        # diverge for some state whose original issue skipped a station,
        # and the entangled property reports it as entangled-sample.
        derive_choice = variants.derive_choice

        def no_busy(s, h):
            return derive_choice(s, h)._replace(busy_rs=frozenset())

        monkeypatch.setattr(variants, "derive_choice", no_busy)
        report = run_property("entangled", GenConfig(seed=14, trials=60))
        assert "entangled-sample" in {x.obligation for f in report.failures
                                      for x in f.findings}

    def test_successor_mutant_fails_entangled_closure(self, monkeypatch,
                                                      fresh_run):
        # The successor keeps its predecessor's history: the sample is
        # still entangled, and its successor is not.  The check folds the
        # history over the sample's transition (next_h), which keeps h
        # here.
        monkeypatch.setattr(refine, "next_h", lambda s, h, info, u: h)
        report = run_property("entangled", GenConfig(seed=14, trials=60))
        assert report.failures
        assert {x.obligation for f in report.failures
                for x in f.findings} == {"entangled-closure"}
