"""Architectural-model semantics, rule by rule, plus fuzzed invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from teasim.isa import (
    MASK32,
    AccessMap,
    ChoiceError,
    Instr,
    IsaState,
    NOOP,
    TsxState,
    cache_invariant_ok,
    compare,
    dmem_read,
    fetch_instr,
    initial_isa_state,
    isa_cache_step,
    isa_det_step,
    isa_step,
    label,
    w32,
    zero_rf,
)

GA = AccessMap(((0, 0xFF),))


def mk(imem=None, dmem=None, ga=GA, pc=0, rf=None, tsx=None, halt=False, cache=None):
    s = initial_isa_state(imem or {}, dmem or {}, ga, pc=pc)
    return IsaState(
        s.pc, rf or s.rf, tsx or s.tsx, halt, s.imem, s.dmem, s.ga, cache or {},
    )


def run_det(s, n):
    for _ in range(n):
        s = isa_det_step(s)
    return s


class TestFetchCompare:
    def test_fetch_mapped(self):
        imem = {5: Instr("add", 1, 2, 3)}
        assert fetch_instr(imem, 5) == Instr("add", 1, 2, 3)

    def test_fetch_empty(self):
        assert fetch_instr({}, 0) == NOOP

    def test_fetch_unmapped(self):
        assert fetch_instr({5: Instr("halt")}, 6) == NOOP

    def test_compare(self):
        assert compare(5, 5) == 1
        assert compare(7, 3) == 2
        assert compare(0, 1) == 0


class TestDetStep:
    def test_halted_identity(self):
        s = mk(imem={0: Instr("loadi", 1, imm=9)}, halt=True)
        assert isa_det_step(s) == s

    def test_noop_and_unmapped(self):
        s = mk()
        s2 = isa_det_step(s)
        assert s2.pc == 1 and s2.rf == s.rf and not s2.halt

    def test_halt_sets_flag_and_advances(self):
        s = mk(imem={0: Instr("halt")})
        s2 = isa_det_step(s)
        assert s2.halt and s2.pc == 1

    def test_alu_ops_wrap(self):
        prog = {
            0: Instr("loadi", 1, imm=0xFFFFFFFF),
            1: Instr("addi", 2, 1, imm=3),
            2: Instr("add", 3, 1, 1),
            3: Instr("mul", 4, 1, 1),
            4: Instr("and", 5, 1, 2),
        }
        s = run_det(mk(imem=prog), 5)
        assert s.rf[1] == 0xFFFFFFFF
        assert s.rf[2] == 2  # wraps
        assert s.rf[3] == 0xFFFFFFFE
        assert s.rf[4] == w32(0xFFFFFFFF * 0xFFFFFFFF)
        assert s.rf[5] == 0xFFFFFFFF & 2

    def test_cmp_jg_jge(self):
        base = {0: Instr("loadi", 1, imm=7), 1: Instr("loadi", 2, imm=3),
                2: Instr("cmp", 3, 1, 2)}
        s = run_det(mk(imem=base), 3)
        assert s.rf[3] == 2
        # jg taken only on 2
        s2 = isa_det_step(mk(imem={0: Instr("jg", r1=3, imm=5)},
                             rf=(0, 0, 0, 2) + (0,) * 8))
        assert s2.pc == 5
        s3 = isa_det_step(mk(imem={0: Instr("jg", r1=3, imm=5)},
                             rf=(0, 0, 0, 1) + (0,) * 8))
        assert s3.pc == 1
        # jge taken on 1 and 2
        for v, want in ((1, 5), (2, 5), (0, 1), (3, 1)):
            sj = isa_det_step(mk(imem={0: Instr("jge", r1=3, imm=5)},
                                 rf=(0, 0, 0, v) + (0,) * 8))
            assert sj.pc == want

    def test_jump_offset_wraps_backwards(self):
        s = isa_det_step(mk(imem={4: Instr("jge", r1=1, imm=w32(-3))},
                            pc=4, rf=(0, 1) + (0,) * 10))
        assert s.pc == 1

    def test_tsx_start_saves_rf_and_fallback(self):
        rf = (9,) * 12
        s = isa_det_step(mk(imem={0: Instr("tsx-start", imm=9)}, rf=rf))
        assert s.pc == 1
        assert s.tsx == TsxState(True, rf, 9)

    def test_tsx_end_outside_region_is_noop(self):
        s = isa_det_step(mk(imem={0: Instr("tsx-end")}))
        assert s.pc == 1 and not s.tsx.active

    def test_tsx_round_trip(self):
        prog = {
            0: Instr("tsx-start", imm=7),
            1: Instr("loadi", 1, imm=5),
            2: Instr("tsx-end"),
        }
        s = run_det(mk(imem=prog), 3)
        assert not s.tsx.active
        assert s.rf[1] == 5  # effects of the enclosed instruction persist

    def test_load_ok_caches_line(self):
        s = mk(imem={0: Instr("ldri", 1, 2, imm=4)}, dmem={4: 7})
        s2 = isa_det_step(s)
        assert s2.rf[1] == 7 and s2.cache == {4: 7} and s2.pc == 1

    def test_load_unmapped_accessible_reads_zero(self):
        s2 = isa_det_step(mk(imem={0: Instr("ldr", 1, 2, 3)}))
        assert s2.rf[1] == 0 and s2.cache == {0: 0}

    def test_fault_outside_tsx_halts_without_pc_change(self):
        s = mk(imem={0: Instr("ldr", 0, 1, 2)},
               rf=(0, 0x100, 0x10) + (0,) * 9)
        s2 = isa_det_step(s)
        assert s2.halt and s2.pc == 0 and s2.rf == s.rf and s2.cache == {}

    def test_fault_inside_tsx_restores(self):
        prog = {
            0: Instr("loadi", 1, imm=0x200),   # kernel pointer
            1: Instr("tsx-start", imm=9),
            2: Instr("loadi", 2, imm=55),      # clobbered by rollback
            3: Instr("ldri", 3, 1, imm=0),     # faults
        }
        s = run_det(mk(imem=prog), 4)
        assert s.pc == 9
        assert not s.tsx.active and not s.halt
        assert s.rf[2] == 0  # rolled back to the file at tsx-start
        assert s.rf[1] == 0x200

    def test_in_cache_results(self):
        rf = (0, 4, 0) + (0,) * 9
        probe = {0: Instr("in-cache", 5, 1, 2)}
        hit = isa_det_step(mk(imem=probe, rf=rf, cache={4: 0}))
        assert hit.rf[5] == 1
        miss = isa_det_step(mk(imem=probe, rf=rf))
        assert miss.rf[5] == 0
        kernel = isa_det_step(mk(imem=probe, rf=(0, 0x300, 0) + (0,) * 9))
        assert kernel.rf[5] == 0


class TestCacheStep:
    def test_empty_choice_identity(self):
        s = mk(cache={4: 0})
        assert isa_cache_step(s) == s

    def test_valid_add(self):
        s = mk(dmem={4: 7})
        s2 = isa_cache_step(s, add=((4, 7),))
        assert s2.cache == {4: 7}

    def test_inaccessible_add_rejected(self):
        with pytest.raises(ChoiceError):
            isa_cache_step(mk(), add=((0x300, 0),))

    def test_wrong_datum_rejected(self):
        with pytest.raises(ChoiceError):
            isa_cache_step(mk(dmem={4: 7}), add=((4, 8),))

    def test_rem_removes(self):
        s = mk(dmem={4: 7}, cache={4: 7, 5: 0})
        s2 = isa_cache_step(s, rem=((4, 7),))
        assert s2.cache == {5: 0}

    def test_rem_of_absent_is_noop(self):
        s = mk(dmem={4: 7})
        assert isa_cache_step(s, rem=((4, 7),)).cache == {}


class TestFullStep:
    def test_both_empty_noop(self):
        s2 = isa_step(mk())
        assert s2.pc == 1

    def test_pre_choice_feeds_in_cache(self):
        s = mk(imem={0: Instr("in-cache", 5, 1, 2)}, dmem={4: 9},
               rf=(0, 4, 0) + (0,) * 9)
        s2 = isa_step(s, pre_add=((4, 9),))
        assert s2.rf[5] == 1

    def test_halted_step_changes_only_cache(self):
        s = mk(dmem={4: 7}, halt=True)
        s2 = isa_step(s, pre_add=((4, 7),))
        assert s2.cache == {4: 7}
        assert (s2.pc, s2.rf, s2.halt) == (s.pc, s.rf, True)


# --- fuzzed invariants ---

OPS_POOL = [
    Instr("noop"), Instr("halt"),
    Instr("loadi", 1, imm=0xFE), Instr("loadi", 2, imm=3),
    Instr("addi", 3, 1, imm=4), Instr("add", 4, 1, 2),
    Instr("mul", 5, 1, 2), Instr("and", 1, 2, 3), Instr("cmp", 2, 3, 4),
    Instr("jg", r1=2, imm=2), Instr("jge", r1=3, imm=w32(-1)),
    Instr("ldri", 1, 2, imm=1), Instr("ldr", 2, 3, 4),
    Instr("tsx-start", imm=3), Instr("tsx-end"),
    Instr("in-cache", 3, 1, 2),
]


@st.composite
def isa_states(draw):
    imem = {a: draw(st.sampled_from(OPS_POOL))
            for a in draw(st.sets(st.integers(0, 15), max_size=8))}
    dmem = {a: draw(st.integers(0, MASK32))
            for a in draw(st.sets(st.integers(0, 0x110), max_size=6))}
    rf = tuple(draw(st.lists(
        st.integers(0, 0x110), min_size=12, max_size=12)))
    cachable = [a for a in dmem if GA.allows(a)]
    cache = {a: dmem[a] for a in cachable if draw(st.booleans())}
    tsx = TsxState(draw(st.booleans()), zero_rf(), draw(st.integers(0, 15)))
    return IsaState(draw(st.integers(0, 16)), rf, tsx, False,
                    imem, dmem, GA, cache)


@settings(max_examples=300, deadline=None)
@given(isa_states())
def test_left_total_and_well_formed(s):
    s2 = isa_det_step(s)
    assert isinstance(s2, IsaState)
    assert all(0 <= v <= MASK32 for v in s2.rf)
    assert 0 <= s2.pc <= MASK32
    assert cache_invariant_ok(s2)


@settings(max_examples=300, deadline=None)
@given(isa_states(), st.integers(0x100, MASK32))
def test_in_cache_inaccessible_always_zero(s, addr):
    if GA.allows(addr):
        return
    rf = (0, addr, 0) + s.rf[3:]
    probe = IsaState(0, rf, s.tsx, False,
                     {0: Instr("in-cache", 5, 1, 2)}, s.dmem, GA, s.cache)
    assert isa_det_step(probe).rf[5] == 0


@settings(max_examples=200, deadline=None)
@given(isa_states(), st.data())
def test_cache_soundness_under_choices(s, data):
    for _ in range(4):
        adds = tuple(
            (a, dmem_read(s.dmem, a))
            for a in data.draw(st.sets(st.integers(0, 0xFF), max_size=3)))
        rems = tuple(
            (a, d) for a, d in list(s.cache.items())[:2]
            if data.draw(st.booleans()))
        s = isa_step(s, pre_add=adds, pre_rem=rems)
        assert cache_invariant_ok(s)


@settings(max_examples=200, deadline=None)
@given(isa_states())
def test_ga_never_changes(s):
    assert isa_det_step(s).ga is s.ga


@settings(max_examples=100, deadline=None)
@given(isa_states())
def test_label_erases_cache_only(s):
    l = label(s)
    assert l.cache == {}
    assert (l.pc, l.rf, l.tsx, l.halt) == (s.pc, s.rf, s.tsx, s.halt)
