"""Out-of-order core: decode, resource accounting, stepping, invariants."""

import pytest

from teasim import asm, ma
from teasim.gen import GenConfig, gen_walk_case, initial_state
from teasim.isa import (
    OP_SHAPES,
    AccessMap,
    ChoiceError,
    Instr,
    isa_det_step,
    label,
    w32,
)
from teasim.ma import (
    BARRIER_OPS,
    CHECK_MOPS,
    MEMORY_OPS,
    NO_STATION,
    MaParams,
    ResStation,
    RobLine,
    comp_val,
    decode_one,
    initial_ma_state,
    ma_step,
    maximal_choice,
    rob_ids,
    run_ma,
    step_core,
)
from teasim.refine import r_ic
from teasim.snapshot import ma_to_text
from teasim.variants import derive_choice, init_h, invl, mah_step, steps_to_take

from conftest import trial_rng

GA = AccessMap(((0, 0xFF),))


def mk(imem=None, dmem=None, ga=GA, pc=0, params=None):
    return initial_ma_state(imem or {}, dmem or {}, ga, pc=pc, params=params)


def prog_state(*instrs, dmem=None, ga=GA, params=None):
    return mk(imem={i: ins for i, ins in enumerate(instrs)},
              dmem=dmem, ga=ga, params=params)


class TestDecode:
    def test_ldri_splits(self):
        u = decode_one(Instr("ldri", 1, 2, imm=4))
        assert [x.mop for x in u] == ["memi-check", "mldri"]
        assert u[0].j == ("r", 2) and u[0].k == ("c", 4)
        assert u[1].rd == 1

    def test_ldr_splits(self):
        u = decode_one(Instr("ldr", 1, 2, 3))
        assert [x.mop for x in u] == ["mem-check", "mldr"]
        assert u[1].j == ("r", 2) and u[1].k == ("r", 3)

    def test_add_single(self):
        (u,) = decode_one(Instr("add", 1, 2, 3))
        assert u.mop == "madd" and u.rd == 1

    def test_halt(self):
        assert [x.mop for x in decode_one(Instr("halt"))] == ["mhalt"]

    def test_mop_classes_disjoint(self):
        assert not (BARRIER_OPS & MEMORY_OPS)
        assert not (NO_STATION & (BARRIER_OPS | MEMORY_OPS | CHECK_MOPS))
        assert "mhalt" in NO_STATION
        assert "mtsx-start" in NO_STATION
        assert "mnoop" not in NO_STATION

    @pytest.mark.parametrize("op", sorted(OP_SHAPES))
    def test_rd_set_exactly_for_register_writers(self, op):
        # An op writes its destination through its last micro-op; an
        # access check writes no register.
        has_rd = OP_SHAPES[op][0]
        i = sample_instr(op)
        for u in decode_one(i):
            writes = has_rd and u.mop not in CHECK_MOPS
            assert u.rd == (i.rd if writes else None), u

    @pytest.mark.parametrize("op", sorted(OP_SHAPES))
    def test_stations_taken_by_all_micro_ops_or_none(self, op):
        # Fetch reads an instruction's station count off its first
        # micro-op.
        uops = decode_one(sample_instr(op))
        assert len({u.mop in NO_STATION for u in uops}) == 1, uops

    def test_decode_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(ma, "_decoded", {})
        for imm in range(ma.DECODE_CACHE_SIZE + 100):
            ma.decoded(Instr("loadi", 1, None, None, imm))
        assert 0 < len(ma._decoded) <= ma.DECODE_CACHE_SIZE
        # Decoding goes on past a full cache.
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        assert run_ma(s, 20)[0].rf[1] == 7

    def test_decode_cache_entries_match_a_fresh_decode(self, monkeypatch):
        # Whatever the fetch put in the cache, for every op, is the
        # instruction's decode, its length and the stations it takes.
        monkeypatch.setattr(ma, "_decoded", {})
        for op in OP_SHAPES:
            run_ma(prog_state(sample_instr(op), Instr("halt")), 20)
        assert {i.op for i in ma._decoded} == set(OP_SHAPES)
        for i, entry in ma._decoded.items():
            uops = decode_one(i)
            taken = sum(u.mop not in NO_STATION for u in uops)
            assert entry == (uops, len(uops), taken), i

    @pytest.mark.parametrize("op", sorted(OP_SHAPES))
    def test_fresh_rob_line_ready_exactly_without_station(self, op):
        s = prog_state(sample_instr(op))
        u, info = step_core(s)
        assert info.issued and not info.batch
        for rec in info.issued:
            line = next(l for l in u.rob if l.rob_id == rec.tag)
            assert line.rdy == (rec.uop.mop in NO_STATION)
            assert (rec.rs_id is None) == (rec.uop.mop in NO_STATION)


def sample_instr(op):
    """An instruction of this op with every operand its shape has."""
    has_rd, n_src, has_imm = OP_SHAPES[op]
    return Instr(op, rd=1 if has_rd else None, r1=2 if n_src >= 1 else None,
                 r2=3 if n_src == 2 else None, imm=4 if has_imm else None)


class TestRobIds:
    def test_continuation(self):
        s = mk()
        rob = (RobLine(4, "madd", 1, False, 0, False),)
        assert rob_ids(2, rob, s.params) == (5, 6)

    def test_empty_count(self):
        assert rob_ids(0, (), MaParams()) == ()

    def test_origin_from_empty(self):
        assert rob_ids(3, (), MaParams()) == (0, 1, 2)

    def test_wraps_cyclically(self):
        p = MaParams()
        rob = (RobLine(p.max_rob, "madd", 1, False, 0, False),)
        assert rob_ids(1, rob, p) == (0,)

    def test_over_capacity_rejected(self):
        p = MaParams()
        rob = tuple(RobLine(i, "mnoop", None, False, 0, False)
                    for i in range(p.max_rob))
        with pytest.raises(ChoiceError):
            rob_ids(1, rob, p)


class TestMaxFetch:
    def test_empty_pipeline_full_width(self):
        s = prog_state(Instr("add", 1, 1, 1), Instr("add", 2, 2, 2),
                       Instr("add", 3, 3, 3))
        assert maximal_choice(s).n == 3

    def test_rs_shortage(self):
        s = prog_state(Instr("add", 1, 1, 1), Instr("add", 2, 2, 2),
                       Instr("add", 3, 3, 3))
        busy = tuple(
            ResStation(rs.rs_id, "madd", None, None, 0, 0, 0, True, False, 0, 0)
            for rs in s.rs_f[:3])
        s = s._replace(rs_f=busy + s.rs_f[3:])
        assert maximal_choice(s).n == 1

    def test_full_rob_zero(self):
        s = prog_state(Instr("add", 1, 1, 1))
        full = tuple(RobLine(i, "mnoop", None, False, 0, False)
                     for i in range(s.params.max_rob))
        s = s._replace(rob=full)
        assert maximal_choice(s).n == 0

    def test_one_slot_but_load_needs_two(self):
        s = prog_state(Instr("ldr", 1, 2, 3))
        nearly = tuple(RobLine(i, "mnoop", None, False, 0, False)
                       for i in range(s.params.max_rob - 1))
        s = s._replace(rob=nearly)
        assert maximal_choice(s).n == 0


class TestIssueDependencies:
    """Operands of a fetch group issued in one cycle wait on the latest
    earlier writer of their register in the group."""

    def stations(self, *instrs):
        """The first cycle's successor, and the operand tags (qj, qk) of
        each station it issued, by ROB tag; fetch past the program
        issues noops, which are left out."""
        u, _ = step_core(prog_state(*instrs))
        return u, {rs.dst: (rs.qj, rs.qk) for rs in u.rs_f
                   if rs.busy and rs.mop != "mnoop"}

    def test_chain(self):
        u, deps = self.stations(Instr("add", 1, 0, 0), Instr("add", 2, 1, 1))
        assert deps == {0: (None, None), 1: (0, 0)}
        assert u.reg_st == {1: 0, 2: 1}

    def test_single(self):
        u, deps = self.stations(Instr("add", 1, 0, 0))
        assert deps == {0: (None, None)}

    def test_latest_writer_wins(self):
        u, deps = self.stations(Instr("loadi", 1, imm=1),
                                Instr("loadi", 1, imm=2),
                                Instr("add", 2, 1, 1))
        assert deps[2] == (1, 1)
        assert u.reg_st == {1: 1, 2: 2}

    def test_checks_do_not_produce(self):
        # The access check (tag 0) and the load (tag 1) both read the
        # committed r1; the add waits on the load, not on the check.
        u, deps = self.stations(Instr("ldri", 1, 1, imm=0), Instr("add", 2, 1, 1))
        assert deps == {0: (None, None), 1: (None, None), 2: (1, 1)}


class TestCompVal:
    def rs(self, mop, vj=0, vk=0, rb_pc=0):
        return ResStation(0, mop, None, None, vj, vk, 0, True, True, 0, rb_pc)

    def test_cmp_operand_order(self):
        s = mk()
        assert comp_val(self.rs("mcmp", vj=3, vk=3), s) == 1
        # vk holds the architecturally-first source
        assert comp_val(self.rs("mcmp", vj=3, vk=7), s) == 2
        assert comp_val(self.rs("mcmp", vj=7, vk=3), s) == 0

    def test_jump_targets(self):
        s = mk()
        assert comp_val(self.rs("mjg", vj=2, vk=5, rb_pc=10), s) == 15
        assert comp_val(self.rs("mjg", vj=1, vk=5, rb_pc=10), s) == 11
        assert comp_val(self.rs("mjge", vj=1, vk=5, rb_pc=10), s) == 15
        assert comp_val(self.rs("mjge", vj=0, vk=5, rb_pc=10), s) == 11

    def test_load_reads_dmem_default_zero(self):
        s = mk(dmem={6: 44})
        for mop in sorted(MEMORY_OPS):
            assert finishing_writeback(s, mop, 2, 4).val == 44
            assert finishing_writeback(s, mop, 2, 5).val == 0

    def test_in_cache_membership_only(self):
        s = mk()
        s = s._replace(cache=frozenset({6}))
        assert comp_val(self.rs("min-cache", vj=2, vk=4), s) == 1
        assert comp_val(self.rs("min-cache", vj=2, vk=5), s) == 0

    def test_check_exception(self):
        s = mk()
        assert finishing_writeback(s, "mem-check", 0x100, 0x10).excep
        assert not finishing_writeback(s, "mem-check", 1, 2).excep
        assert not finishing_writeback(s, "mldr", 0x100, 0x10).excep


def finishing_writeback(s, mop, vj, vk):
    """The writeback of station 0 finishing mop on operands vj and vk in
    the cycle after s, with its ROB line the only one in flight."""
    rs = ResStation(0, mop, None, None, vj, vk, s.cyc, True, True, 0, 0)
    s = s._replace(rob=(RobLine(0, mop, None, False, 0, False),),
                   rs_f=(rs, *s.rs_f[1:]))
    (wb,) = step_core(s)[1].writebacks
    assert (wb.dst, wb.mop) == (0, mop)
    return wb


class TestBarrierStarts:
    """The barrier rule lets a ready station start once it may: an
    in-cache waits while an older load is in the reorder buffer, a load
    while an older in-cache is, and neither on a younger line."""

    def state(self, mop, dst, lines):
        """The empty machine with station 0 ready to start mop for the
        ROB line tagged dst, and the lines (tag, mop, ready) in flight."""
        s = mk()
        rs = ResStation(0, mop, None, None, 0, 0, 0, True, False, dst, 0)
        return s._replace(
            rob=tuple(RobLine(tag, m, None, rdy, 0, False)
                      for tag, m, rdy in lines),
            rs_f=(rs, *s.rs_f[1:]))

    @pytest.mark.parametrize("load", sorted(MEMORY_OPS))
    def test_in_cache_starts_the_cycle_after_an_older_load_leaves(self, load):
        s = self.state("min-cache", 1,
                       [(0, load, False), (1, "min-cache", False)])
        for _ in range(3):  # the load's line stays, and so does the wait
            s, info = step_core(s)
            assert 0 not in info.started
        # Ready, the load's line commits; the start is judged against
        # the buffer before the cycle, so it waits one cycle more.
        s = s._replace(rob=(s.rob[0]._replace(rdy=True), *s.rob[1:]))
        s, info = step_core(s)
        assert [l.rob_id for l in info.batch] == [0]
        assert 0 not in info.started
        s, info = step_core(s)
        assert 0 in info.started

    @pytest.mark.parametrize("load", sorted(MEMORY_OPS))
    def test_load_waits_behind_an_older_in_cache(self, load):
        s = self.state(load, 1, [(0, "min-cache", False), (1, load, False)])
        assert 0 not in step_core(s)[1].started

    @pytest.mark.parametrize("mop, other", [
        ("min-cache", "mldr"), ("min-cache", "mldri"),
        ("mldr", "min-cache"), ("mldri", "min-cache")])
    def test_no_wait_on_a_younger_line(self, mop, other):
        s = self.state(mop, 0, [(0, mop, False), (1, other, False)])
        assert 0 in step_core(s)[1].started


class TestStep:
    def test_halted_identity(self):
        s = prog_state(Instr("halt"))
        s, _ = run_ma(s, 50)
        assert s.halt
        assert ma_step(s) == s

    def test_single_loadi_retires(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        s2, _ = run_ma(s, 50)
        assert s2.halt and s2.rf[1] == 7 and s2.pc == 2

    def test_cycle_strictly_increases(self):
        s = prog_state(Instr("loadi", 1, imm=7), Instr("halt"))
        while not s.halt:
            nxt = ma_step(s)
            assert nxt.cyc == w32(s.cyc + 1)
            s = nxt

    def test_determinism_byte_identical(self):
        prog = asm.load_bundled("spectre")
        a = asm.emit_ma(prog)
        b = asm.emit_ma(prog)
        for _ in range(25):
            a, b = ma_step(a), ma_step(b)
            assert ma_to_text(a) == ma_to_text(b)

    def test_invalid_choice_rejected(self):
        from teasim.ma import Choice
        s = prog_state(Instr("add", 1, 1, 1))
        from teasim.ma import man_step
        with pytest.raises(ChoiceError):
            man_step(s, Choice(4, frozenset(range(20)),
                               frozenset(range(4)), frozenset()))

    def test_transient_kernel_line_persists(self):
        # The canonical rollback leak: a faulting TSX load's dependent
        # access stays in the cache after the register file is restored.
        prog = asm.load_bundled("meltdown")
        s, _ = run_ma(asm.emit_ma(prog), 5000)
        secret = dict(prog.data)[4096]
        assert s.halt
        assert 0x100 + secret in s.cache   # secret-indexed line
        assert 4096 in s.cache             # the kernel line itself
        assert s.rf[10] == secret


class TestInvariants:
    def run_scan(self, case_idx):
        from teasim.gen import GenConfig, gen_entangled_case, case_pair
        cfg = GenConfig(seed=5)
        case = gen_entangled_case(cfg, trial_rng("ma-scan", case_idx))
        s, _ = case_pair(case._replace(forward_steps=0))
        for _ in range(120):
            if s.halt:
                break
            ids = [l.rob_id for l in s.rob]
            assert len(ids) == len(set(ids)), "duplicate ROB tags"
            assert len(s.rob) <= s.params.max_rob
            for rs in s.rs_f:
                if not (rs.busy and rs.exec):
                    continue
                before = s.rob[:ids.index(rs.dst)]
                if rs.mop in BARRIER_OPS:
                    assert not any(l.mop in MEMORY_OPS for l in before)
                if rs.mop in MEMORY_OPS:
                    assert not any(l.mop in BARRIER_OPS for l in before)
            s = ma_step(s)

    def test_rob_unique_and_barriers_hold(self):
        for i in range(40):
            self.run_scan(i)

    def test_architectural_agreement_on_bundled(self):
        # In-order commit: the committed effects equal the architectural run.
        for name in ("primality", "spectre"):
            prog = asm.load_bundled(name)
            ma, _ = run_ma(asm.emit_ma(prog), 50_000)
            isa = asm.emit_isa(prog)
            for _ in range(50_000):
                if isa.halt:
                    break
                isa = isa_det_step(isa)
            assert ma.halt and isa.halt
            assert label(r_ic(ma)) == label(isa)


class TestMachineFamily:
    """The lines each prefetch policy deposits, and the bundled programs
    on non-default machines."""

    @pytest.mark.parametrize("policy, at5, at0", [
        (("next", 2), (6, 7), (1, 2)),
        (("next", 0), (), ()),
        (("stride", 3, 2), (8, 11), (3, 6)),
        # below 0 the lines wrap to 0xFFFFFFFF.., which are not accessible
        (("stride", -1, 2), (4, 3), ()),
        (("none",), (), ()),
    ])
    def test_prefetch_addrs(self, policy, at5, at0):
        # A finishing load deposits its own line, then its prefetch set.
        s = mk(params=MaParams(prefetch=policy))
        assert finishing_writeback(s, "mldr", 5, 0).inserted == (5, *at5)
        assert finishing_writeback(s, "mldri", 0, 0).inserted == (0, *at0)

    @pytest.mark.parametrize("policy", [
        ("stride", 0, 3), ("stride", 1 << 31, 2), ("stride", 1 << 32, 1)])
    def test_a_stride_that_repeats_a_line_is_rejected(self, policy):
        with pytest.raises(ValueError, match="repeats a line"):
            MaParams(prefetch=policy)

    def test_a_stride_of_half_the_space_fetches_one_line(self):
        s = mk(ga=AccessMap(((0, 0xFF), (0x8000_0000, 0x8000_00FF))),
               params=MaParams(prefetch=("stride", 1 << 31, 1)))
        assert (finishing_writeback(s, "mldr", 5, 0).inserted
                == (5, 0x8000_0005))

    @pytest.mark.parametrize("field, least", [
        ("fetch_num", 1), ("max_rob", ma.MAX_DECODE),
        ("rs_count", ma.MAX_DECODE), ("reg_count", 1), ("prefetch", 0)])
    def test_sizes_lie_between_their_least_and_max_size(self, field, least):
        def params(n):
            return MaParams(**{field: ("next", n) if field == "prefetch" else n})

        for n in (least, ma.MAX_SIZE):
            params(n)
        for n in (least - 1, ma.MAX_SIZE + 1):
            with pytest.raises(ValueError, match=f"from {least} to 256, got {n}"):
                params(n)

    MACHINES = {
        "narrow": MaParams(fetch_num=1, rs_count=2, max_rob=4),
        "stride": MaParams(prefetch=("stride", 2, 2)),
        "none": MaParams(prefetch=("none",)),
        "smallest": MaParams(max_rob=2, rs_count=2),
        "wide": MaParams(fetch_num=4, rs_count=8, max_rob=8,
                         prefetch=("stride", 3, 2)),
    }
    CACHES = {
        ("primality", "narrow"): {8, 9},
        ("primality", "stride"): {8, 10, 12},
        ("primality", "none"): {8},
        ("primality", "smallest"): {8, 9},
        ("primality", "wide"): {8, 11, 14},
        ("spectre", "narrow"): set(),
        ("spectre", "stride"): {0x16, 0x18, 0x1a, 0x14d, 0x14f, 0x151},
        ("spectre", "none"): {0x16, 0x14d},
        ("spectre", "smallest"): set(),
        ("spectre", "wide"): {0x16, 0x19, 0x1c, 0x14d, 0x150, 0x153},
    }

    @pytest.mark.parametrize("name, machine", sorted(CACHES))
    def test_bundled_programs_agree_with_the_isa(self, name, machine):
        prog = asm.load_bundled(name)
        s, _ = run_ma(asm.emit_ma(prog, self.MACHINES[machine]), 50_000)
        isa = asm.emit_isa(prog)
        for _ in range(50_000):
            if isa.halt:
                break
            isa = isa_det_step(isa)
        assert s.halt and isa.halt
        assert label(r_ic(s)) == label(isa)
        assert set(s.cache) == self.CACHES[name, machine]


def runs_for_writebacks():
    """Deterministic runs: the bundled programs and 50 random walks."""
    for name in ("meltdown", "spectre", "primality"):
        yield asm.emit_ma(asm.load_bundled(name))
    cfg = GenConfig(seed=1)
    for i in range(50):
        yield initial_state(gen_walk_case(cfg, trial_rng("writeback", i)))


def test_no_writeback_commits_in_its_own_cycle():
    # A line written back in a cycle is commit-visible only in the next,
    # so no writeback's line is in the same cycle's commit batch.
    loads = 0
    for s in runs_for_writebacks():
        for _ in range(3000):
            if s.halt:
                break
            s, info = step_core(s)
            batch = {l.rob_id for l in info.batch}
            for wb in info.writebacks:
                assert wb.dst not in batch
                loads += wb.mop in MEMORY_OPS
    assert loads >= 50


def writeback_transitions():
    """(s, info) of each cycle along the deterministic runs from the
    bundled programs and 200 generated walk cases (at most 400 cycles
    each), and, from every 3rd state of them, of its replay: rewound to
    its last commit point (`invl`) and stepped under `derive_choice`."""
    cfg = GenConfig(seed=19)
    starts = [asm.emit_ma(asm.load_bundled(name))
              for name in ("meltdown", "spectre", "primality")]
    starts += [initial_state(gen_walk_case(cfg, trial_rng("finishing", i)))
               for i in range(200)]
    for s in starts:
        h = init_h(s)
        for step in range(400):
            if s.halt:
                break
            if step % 3 == 0:
                x = invl(s, h)
                for _ in range(steps_to_take(s, h)):
                    x2, info = step_core(x, derive_choice(x, h))
                    yield "replay", x, info
                    x = x2
            u, h, info = mah_step(s, h)
            yield "maximal", s, info
            s = u


def test_only_stations_finishing_in_the_pre_state_write_back():
    # step_core finds its writebacks in its start pass: a station writes
    # back only if it was executing with cpc == cyc before the cycle, so
    # none started or issued in the cycle writes back in it.  The station
    # that writes back is the one busy station whose tag it writes.
    seen = {"maximal": 0, "replay": 0}
    for kind, s, info in writeback_transitions():
        fresh = set(info.started)
        fresh |= {rec.rs_id for rec in info.issued if rec.rs_id is not None}
        for wb in info.writebacks:
            (rs,) = [rs for rs in s.rs_f if rs.busy and rs.dst == wb.dst]
            assert rs.rs_id not in fresh
            assert rs.exec and rs.cpc == s.cyc
            seen[kind] += 1
    assert seen["maximal"] >= 1000 and seen["replay"] >= 1000, seen
