"""Resource-choice stepping, history bookkeeping, invalidate/replay."""


import hashlib

import pytest

from teasim import asm
from teasim.snapshot import history_to_text
from teasim.isa import AccessMap, ChoiceError, Instr, w32
from teasim.ma import (
    Choice,
    RobLine,
    initial_ma_state,
    ma_step,
    man_step,
    maximal_choice,
    run_ma,
    step_core,
)
from teasim.variants import (
    History,
    derive_choice,
    get_h,
    init_h,
    invl,
    is_entangled,
    is_initial,
    mah_step,
    next_h,
    step_using_h,
    steps_to_take,
)
from teasim.gen import (
    GenConfig,
    _trial_rng,
    case_pair,
    gen_entangled_case,
    gen_walk_case,
    initial_state,
)

from conftest import on_small_machine, trial_rng

GA = AccessMap(((0, 0xFF),))


def prog_state(*instrs, dmem=None, ga=GA):
    return initial_ma_state({i: x for i, x in enumerate(instrs)},
                            dmem or {}, ga)


# The folded histories of the programs below, every step.  Replay reads
# every field and status kind, `wr-b` tags included, so a wrong history
# mostly fails to replay; this digest also holds what only a later
# state's replay reads, such as the lines a load in flight will commit
# (`ch_eff`).  Update it only with a change that means to alter
# histories, and say why in that change.
HISTORY_SHA256 = "8b9622ab65f9a730d259d0737a19af6c2e71a3d1c582c451108ef4c2921c1d46"


def pinned_programs():
    """100 walk cases at seed 1 and the three bundled programs, as
    initial states."""
    cfg = GenConfig(seed=1)
    for i in range(100):
        yield initial_state(gen_walk_case(cfg, _trial_rng(1, "history-pin", i)))
    for name in ("meltdown", "spectre", "primality"):
        yield asm.emit_ma(asm.load_bundled(name))


def deterministic_run(s, steps: int):
    """s and its first transitions (s, info, u), up to halt."""
    run, x = [], s
    for _ in range(steps):
        if x.halt:
            break
        u, info = step_core(x)
        run.append((x, info, u))
        x = u
    return s, run


def choice_driven_runs():
    """200 walk cases at seed 7, each with up to 40 transitions (s, info,
    u) under resource choices drawn at random: commits, starts and
    fetch widths."""
    cfg = GenConfig(seed=7)
    for i in range(200):
        rng = _trial_rng(7, "choice-fold", i)
        s = x = initial_state(gen_walk_case(cfg, rng))
        run = []
        for _ in range(40):
            if x.halt:
                break
            choice = Choice(
                rng.randint(0, maximal_choice(x).n),
                frozenset(t for t in all_tags(x) if rng.random() < 0.7),
                frozenset(r for r in all_rs(x) if rng.random() < 0.7),
                frozenset())
            u, info = step_core(x, choice)
            run.append((x, info, u))
            x = u
        yield s, run


def all_tags(s):
    return frozenset(range(s.params.rob_tag_space))


def all_rs(s):
    return frozenset(range(s.params.rs_count))


class TestChoices:
    def test_maximal_equals_deterministic(self):
        for i in range(30):
            s, _ = case_pair(gen_entangled_case(
                GenConfig(seed=1), trial_rng("maxeq", i)))
            assert ma_step(s) == man_step(s, maximal_choice(s))

    def test_empty_allow_commit_freezes_architecture(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        for _ in range(6):
            s = man_step(s, Choice(maximal_choice(s).n, frozenset(),
                                   all_rs(s), frozenset()))
        assert (s.pc, s.rf[1], s.halt) == (0, 0, False)
        assert s.rob  # work piled up, nothing retired

    def test_all_busy_rs_blocks_issue(self):
        s = prog_state(Instr("add", 1, 1, 1))
        stepped = man_step(s, Choice(0, all_tags(s), all_rs(s), all_rs(s)))
        assert stepped.rob == () and all(not rs.busy for rs in stepped.rs_f)
        with pytest.raises(ChoiceError):
            man_step(s, Choice(1, all_tags(s), all_rs(s), all_rs(s)))

    def test_empty_allow_start_stalls_execution(self):
        s = prog_state(Instr("add", 1, 1, 1), Instr("halt"))
        for _ in range(8):
            s = man_step(s, Choice(maximal_choice(s).n, all_tags(s),
                                   frozenset(), frozenset()))
        assert not s.halt
        assert any(rs.busy and not rs.exec for rs in s.rs_f)


class TestHistory:
    def test_halted_identity(self):
        s, _ = run_ma(prog_state(Instr("halt")), 50)
        h = init_h(s)
        assert mah_step(s, h)[:2] == (s, h)

    def test_init_h_shape(self):
        s = prog_state()
        s = s._replace(cyc=42)
        assert init_h(s) == History(42, {}, {}, ())

    def test_first_issue_sets_start_cy(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        s = s._replace(cyc=5, fetch_pc=0)
        s2, h2, _ = mah_step(s, init_h(s))
        assert h2.start_cy == 5
        assert h2.lines and h2.lines[0].statuses[0][0] == "fetch"

    def test_projection_matches_plain_step(self):
        for i in range(30):
            s, h = case_pair(gen_entangled_case(
                GenConfig(seed=2), trial_rng("proj", i)))
            assert mah_step(s, h)[0] == ma_step(s)

    def test_invalidating_commit_resets_history(self):
        s = prog_state(Instr("jge", r1=0, imm=2), Instr("halt"))
        # make the jump taken: condition register value 1
        s = s._replace(rf=(1,) + s.rf[1:])
        h = init_h(s)
        seen_invld = False
        for _ in range(12):
            if s.halt:
                break
            pre_cyc = s.cyc
            s, h, _ = mah_step(s, h)
            if not h.lines and h.start_cy == w32(pre_cyc + 1):
                seen_invld = True
                assert h.comm_cache == s.cache
        assert seen_invld

    def test_folded_histories_are_unchanged(self):
        digest = hashlib.sha256()
        for s in pinned_programs():
            h = init_h(s)
            for _ in range(60):
                if s.halt:
                    break
                u, info = step_core(s)
                h = next_h(s, h, info, u)
                s = u
                digest.update(history_to_text(h).encode())
        assert digest.hexdigest() == HISTORY_SHA256

    def test_status_per_live_cycle(self):
        prog = asm.load_bundled("spectre")
        s = asm.emit_ma(prog)
        h = init_h(s)
        for _ in range(20):
            if s.halt:
                break
            s, h, _ = mah_step(s, h)
            if h.lines:
                anchor = len(h.lines[0].statuses)
                for sl in h.lines:
                    assert len(sl.statuses) <= anchor
                    assert sl.statuses[0][0] == "fetch"
                assert h.start_cy == w32(s.cyc - anchor)


class TestInvalidate:
    def test_empty_pipeline_only_cache_changes(self):
        s = prog_state()
        h = History(0, {3: 0}, {}, ())
        s = s._replace(cache={3: 0, 7: 0})
        x = invl(s, h)
        assert x.cache == {3: 0}
        assert (x.pc, x.rf, x.cyc) == (s.pc, s.rf, s.cyc)

    def test_midflight_rewinds_cycle(self):
        s = prog_state(Instr("mul", 1, 1, 1), Instr("mul", 2, 2, 2),
                       Instr("halt"))
        h = init_h(s)
        for _ in range(3):
            s, h, _ = mah_step(s, h)
        assert h.lines
        x = invl(s, h)
        assert x.cyc == h.start_cy
        assert x.rob == () and x.reg_st == {}
        assert all(not rs.busy and not rs.exec for rs in x.rs_f)
        assert x.fetch_pc == x.pc

    def test_invalidate_twice_stable(self):
        s = prog_state(Instr("loadi", 1, imm=4), Instr("halt"))
        h = init_h(s)
        for _ in range(2):
            s, h, _ = mah_step(s, h)
        x = invl(s, h)
        # invalidating again with a history that commits to the same
        # cache is the identity
        x2 = invl(x, History(x.cyc, dict(x.cache), {}, ()))
        assert x2 == x

    def test_steps_to_take(self):
        s = prog_state()
        assert steps_to_take(s, init_h(s)) == 0
        h = History(7, {}, {}, (init_h(s),))  # nonempty lines marker
        s10 = s._replace(cyc=10)
        h = h._replace(lines=(("dummy"),))
        assert steps_to_take(s10, h) == 3


class TestGetH:
    def trace(self, *instrs, steps):
        s = prog_state(*instrs)
        h = init_h(s)
        out = [(s, h)]
        for _ in range(steps):
            s, h, _ = mah_step(s, h)
            out.append((s, h))
        return out

    def test_before_window_empty(self):
        pairs = self.trace(Instr("mul", 1, 1, 1), Instr("halt"), steps=3)
        s, h = pairs[-1]
        assert h.lines
        assert get_h(h, w32(h.start_cy - 1)) == []

    def test_issue_cycle_statuses(self):
        pairs = self.trace(Instr("add", 1, 1, 1), Instr("add", 2, 2, 2),
                           Instr("halt"), steps=2)
        s, h = pairs[-1]
        first = get_h(h, h.start_cy)
        assert first and all(st[0] == "fetch" for _, _, st in first)
        # both micro-ops of the same batch report that cycle
        assert len(first) >= 2

    def test_derive_choice_idle_cycle(self):
        s = prog_state()
        h = init_h(s)
        c = derive_choice(s, h)
        assert c.n == 0 and c.allow_start == frozenset() and c.tags == ()

    def test_derive_choice_names_station(self):
        s0 = prog_state(Instr("add", 1, 1, 1), Instr("halt"))
        s1, h1, _ = mah_step(s0, init_h(s0))
        x = invl(s1, h1)
        c = derive_choice(x, h1)
        assert c.n == 3  # add + halt + trailing noop fetched together
        fetch_sts = [st for _, _, st in get_h(h1, x.cyc) if st[0] == "fetch"]
        named = {st[1] for st in fetch_sts if st[1] is not None}
        assert named and c.busy_rs == all_rs(x) - named


class TestEntangled:
    def test_initial_states(self):
        for name in ("meltdown", "spectre", "primality"):
            s = asm.emit_ma(asm.load_bundled(name))
            assert is_entangled(s, init_h(s))

    def test_replay_reproduces_states(self):
        for i in range(60):
            s, h = case_pair(gen_entangled_case(
                GenConfig(seed=3), trial_rng("replay", i)))
            assert is_entangled(s, h)

    def test_closure_along_trajectories(self):
        for i in range(15):
            case = gen_entangled_case(GenConfig(seed=4), trial_rng("clos", i))
            s, h = case_pair(case._replace(forward_steps=0))
            for _ in range(12):
                if s.halt:
                    break
                s, h, _ = mah_step(s, h)
                assert is_entangled(s, h)

    def test_fold_over_choice_driven_runs(self):
        """next_h folds steps under any resource choice: every state of
        a run whose commits, starts and fetch widths are drawn at random
        is entangled with its history."""
        for s, run in choice_driven_runs():
            h = init_h(s)
            for s, info, u in run:
                h = next_h(s, h, info, u)
                assert is_entangled(u, h)

    def test_moved_writeback_does_not_replay(self):
        """Replay checks the `wr-b` tags: a history with one `wr-b` mark
        moved by one cycle, swapped with the status before or after it
        (never the issue), is not entangled with the state."""
        moved = 0
        for i in range(60):
            s, h = case_pair(gen_entangled_case(
                GenConfig(seed=3), trial_rng("replay", i)))
            for n, sl in enumerate(h.lines):
                sts = list(sl.statuses)
                if ("wr-b",) not in sts:
                    continue
                k = sts.index(("wr-b",))
                for j in (k - 1, k + 1):
                    if 0 < j < len(sts):
                        swapped = list(sts)
                        swapped[j], swapped[k] = sts[k], sts[j]
                        line = sl._replace(statuses=tuple(swapped))
                        lines = h.lines[:n] + (line,) + h.lines[n + 1:]
                        assert not is_entangled(s, h._replace(lines=lines))
                        moved += 1
        assert moved >= 50, moved

    def test_window_starts_where_invl_rewinds(self):
        """A history's window starts at the cycle `invl` rewinds to: its
        state's cycle less the oldest line's status count, or its
        state's own cycle when nothing is in flight, however the
        pipeline emptied.  And a pipeline-empty state is entangled with
        the empty history (the paper's lemma).  The small machine's
        pipeline also empties without a squash, as do runs under drawn
        choices."""
        runs = [deterministic_run(build(s), 200)
                for s in pinned_programs()
                for build in (lambda s: s, on_small_machine)]
        empty = 0
        for s, run in runs + list(choice_driven_runs()):
            h = init_h(s)
            for s, info, u in run:
                h = next_h(s, h, info, u)
                live = len(h.lines[0].statuses) if h.lines else 0
                assert h.start_cy == w32(u.cyc - live)
                assert invl(u, h).cyc == h.start_cy
                if is_initial(u):
                    empty += 1
                    assert is_entangled(u, init_h(u))
        assert empty >= 1000

    def test_corrupted_state_rejected(self):
        s = prog_state(Instr("mul", 1, 1, 1), Instr("halt"))
        h = init_h(s)
        for _ in range(2):
            s, h, _ = mah_step(s, h)
        assert s.rob and is_entangled(s, h)
        ghost = s.rob + (RobLine(17, "madd", 2, False, 0, False),)
        assert not is_entangled(s._replace(rob=ghost), h)

    def test_replay_window_bounded(self):
        cap = None
        for i in range(40):
            s, h = case_pair(gen_entangled_case(
                GenConfig(seed=5, max_forward_steps=60),
                trial_rng("bound", i)))
            cap = s.params.stutter_cap() * 2
            assert steps_to_take(s, h) <= cap

    def test_history_read_only_during_replay(self):
        s, h = case_pair(gen_entangled_case(
            GenConfig(seed=6), trial_rng("ro", 1)))
        x = invl(s, h)
        if steps_to_take(s, h):
            x2, h2 = step_using_h(x, h)
            assert h2 is h
