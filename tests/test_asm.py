"""Assembly parsing, rendering, and initial-state construction."""

import pytest

from teasim import asm
from teasim.asm import AsmError, parse, render
from teasim.isa import Instr
from teasim.ma import MaParams
from teasim.variants import is_initial
from teasim.variants import init_h, is_entangled

from conftest import trial_rng


class TestParse:
    def test_basic_instruction(self):
        p = parse("loadi r1 7\n")
        assert p.instrs == (Instr("loadi", rd=1, imm=7),)

    def test_hex_immediate(self):
        p = parse("ldri r0 r2 0x10\n")
        assert p.instrs[0] == Instr("ldri", rd=0, r1=2, imm=16)

    def test_negative_immediate_wraps(self):
        p = parse("jge r1 -3\n")
        assert p.instrs[0].imm == 0xFFFFFFFD

    def test_unknown_register(self):
        with pytest.raises(AsmError, match="unknown register"):
            parse("loadi r99 1\n")

    def test_unknown_op(self):
        with pytest.raises(AsmError, match="unknown operation"):
            parse("frob r1\n")

    def test_arity_checked(self):
        with pytest.raises(AsmError, match="operand"):
            parse("add r1 r2\n")

    def test_immediate_overflow(self):
        with pytest.raises(AsmError, match="range"):
            parse("loadi r1 4294967296000\n")

    def test_directives_and_comments(self):
        p = parse(
            "; a program\n"
            ".org 4\n"
            ".access 0 255\n"
            ".data 16 9   ; secret\n"
            ".entry 3\n"
            "noop\n"
            "halt\n"
        )
        assert p.base == 4 and p.entry == 3
        assert p.data == ((16, 9),)
        assert p.imem == {4: Instr("noop"), 5: Instr("halt")}

    def test_error_carries_line_number(self):
        with pytest.raises(AsmError, match="line 3"):
            parse("noop\nnoop\nbogus r1\n")

    def test_overlapping_access_ranges_name_their_line(self):
        with pytest.raises(AsmError,
                           match="^line 3: range 0x10-0x30 overlaps 0x0-0x1f$"):
            parse(".access 0 31\n.access 64 127\n.access 16 48\nhalt\n")
        # A repeated range is one range; adjacent ranges do not overlap.
        p = parse(".access 0 31\n.access 0 31\n.access 32 63\nhalt\n")
        assert p.access == ((0, 31), (32, 63))


class TestRoundTrip:
    def test_render_parse_identity(self):
        for name in ("meltdown", "spectre", "primality"):
            p = asm.load_bundled(name)
            assert parse(render(p)) == p

    def test_generated_programs_round_trip(self):
        from teasim.gen import GenConfig, gen_program
        cfg = GenConfig(seed=21)
        for i in range(60):
            p = gen_program(cfg, trial_rng("asm-rt", i))
            assert parse(render(p)) == p


class TestEmit:
    def test_initial_shape(self):
        p = parse(".access 0 255\n.entry 2\nnoop\nnoop\nhalt\n")
        ma = asm.emit_ma(p)
        assert ma.pc == ma.fetch_pc == 2
        assert ma.cyc == 0 and not ma.halt and ma.cache == {}
        assert is_initial(ma)
        isa = asm.emit_isa(p)
        assert isa.pc == 2 and isa.rf == (0,) * 12 and not isa.tsx.active

    def test_instruction_memory_wraps_around_address_zero(self):
        p = parse(".org 0xFFFFFFFE\nloadi r1 1\nnoop\nhalt\n")
        assert p.imem == {0xFFFFFFFE: Instr("loadi", rd=1, imm=1),
                          0xFFFFFFFF: Instr("noop"), 0: Instr("halt")}
        assert parse(".org 5\nnoop\nhalt\n").imem == {
            5: Instr("noop"), 6: Instr("halt")}

    def test_emitted_states_entangled(self):
        for name in ("meltdown", "spectre", "primality"):
            s = asm.emit_ma(asm.load_bundled(name))
            assert is_entangled(s, init_h(s))

    def test_emit_with_params(self):
        p = parse("halt\n")
        ma = asm.emit_ma(p, MaParams(rs_count=6))
        assert len(ma.rs_f) == 6
