"""Assembly text format and initial-state construction.

One instruction per line (`op rdest rsrc... imm`), registers written
`r<k>`, immediates decimal, hex (0x...), or negative (wrapped to 32
bits).  Directives: `.org addr` places the following instructions,
`.data addr value` seeds data memory, `.access lo hi` adds an
accessible range, `.entry pc` sets the start address.  `;` starts a
comment.  Instructions occupy consecutive addresses from the base; the
instruction and data memories are disjoint address spaces.

`emit_ma` copies each memory once (`Program.imem`, `Program.dmem`) and
hands the copies to `ma.initial_ma_state`, which keeps them as they are
and builds the state with `tuple.__new__`, on the default `MaParams`
and a shared tuple of idle stations.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from .isa import (
    MASK32,
    OP_SHAPES,
    REG_COUNT,
    AccessMap,
    Instr,
    IsaState,
    initial_isa_state,
    w32,
)
from .ma import MaParams, MaState, initial_ma_state


class AsmError(ValueError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class Program(NamedTuple):
    base: int
    instrs: tuple[Instr, ...]
    data: tuple[tuple[int, int], ...]
    access: tuple[tuple[int, int], ...]
    entry: int

    @property
    def imem(self) -> dict[int, Instr]:
        addrs = range(self.base, self.base + len(self.instrs))
        if addrs.stop > MASK32 + 1:  # the block wraps around address 0
            addrs = map(w32, addrs)
        return dict(zip(addrs, self.instrs))

    @property
    def dmem(self) -> dict[int, int]:
        return dict(self.data)

    @property
    def ga(self) -> AccessMap:
        return _access_map(self.access)


# The checked access map of each tuple of ranges, built once: an
# AccessMap is immutable, so programs share it.  Programs draw their
# ranges from a few tuples (generated ones from two), so this stays small.
_ACCESS_MAPS: dict[tuple[tuple[int, int], ...], AccessMap] = {}


def _access_map(access: tuple[tuple[int, int], ...]) -> AccessMap:
    ga = _ACCESS_MAPS.get(access)
    if ga is None:
        ga = _ACCESS_MAPS[access] = AccessMap(tuple(sorted(access)))
    return ga


def _int_lit(tok: str, line_no: int) -> int:
    try:
        v = int(tok, 0)
    except ValueError:
        raise AsmError(line_no, f"bad number {tok!r}") from None
    if not -(1 << 32) < v < (1 << 32):
        raise AsmError(line_no, f"immediate {tok} out of 32-bit range")
    return w32(v)


def _reg(tok: str, line_no: int, reg_count: int) -> int:
    if not tok.startswith("r") or not tok[1:].isdigit():
        raise AsmError(line_no, f"expected register, got {tok!r}")
    k = int(tok[1:])
    if k >= reg_count:
        raise AsmError(line_no, f"unknown register {tok} (have r0..r{reg_count - 1})")
    return k


def parse_instr(toks: list[str], line_no: int, reg_count: int) -> Instr:
    op = toks[0]
    if op not in OP_SHAPES:
        raise AsmError(line_no, f"unknown operation {op!r}")
    has_rd, n_src, has_imm = OP_SHAPES[op]
    want = (1 if has_rd else 0) + n_src + (1 if has_imm else 0)
    if len(toks) - 1 != want:
        raise AsmError(line_no, f"{op} takes {want} operand(s), got {len(toks) - 1}")
    i = 1
    rd = r1 = r2 = imm = None
    if has_rd:
        rd = _reg(toks[i], line_no, reg_count)
        i += 1
    if n_src >= 1:
        r1 = _reg(toks[i], line_no, reg_count)
        i += 1
    if n_src >= 2:
        r2 = _reg(toks[i], line_no, reg_count)
        i += 1
    if has_imm:
        imm = _int_lit(toks[i], line_no)
    return Instr(op, rd, r1, r2, imm)


def parse(text: str, reg_count: int = REG_COUNT) -> Program:
    base = 0
    entry: int | None = None
    instrs: list[Instr] = []
    data: list[tuple[int, int]] = []
    access: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == ".org":
            if len(toks) != 2:
                raise AsmError(line_no, ".org takes one address")
            if instrs:
                raise AsmError(line_no, ".org must precede instructions")
            base = _int_lit(toks[1], line_no)
        elif toks[0] == ".data":
            if len(toks) != 3:
                raise AsmError(line_no, ".data takes address and value")
            data.append((_int_lit(toks[1], line_no), _int_lit(toks[2], line_no)))
        elif toks[0] == ".access":
            if len(toks) != 3:
                raise AsmError(line_no, ".access takes low and high")
            lo, hi = _int_lit(toks[1], line_no), _int_lit(toks[2], line_no)
            if lo > hi:
                raise AsmError(line_no, f"empty range {lo:#x}-{hi:#x}")
            for l, h in access:
                if l <= hi and lo <= h and (l, h) != (lo, hi):
                    raise AsmError(line_no, f"range {lo:#x}-{hi:#x} "
                                            f"overlaps {l:#x}-{h:#x}")
            access.append((lo, hi))
        elif toks[0] == ".entry":
            if len(toks) != 2:
                raise AsmError(line_no, ".entry takes one address")
            entry = _int_lit(toks[1], line_no)
        elif toks[0].startswith("."):
            raise AsmError(line_no, f"unknown directive {toks[0]!r}")
        else:
            instrs.append(parse_instr(toks, line_no, reg_count))
    prog = Program(
        base=base,
        instrs=tuple(instrs),
        data=tuple(data),
        access=tuple(sorted(set(access))),
        entry=base if entry is None else entry,
    )
    prog.ga  # validate ranges
    return prog


def render(p: Program) -> str:
    out = []
    if p.base:
        out.append(f".org {p.base}")
    for lo, hi in p.access:
        out.append(f".access {lo} {hi}")
    for a, v in p.data:
        out.append(f".data {a} {v}")
    out.append(f".entry {p.entry}")
    out.extend(i.render() for i in p.instrs)
    return "\n".join(out) + "\n"


def emit_isa(p: Program, reg_count: int = REG_COUNT) -> IsaState:
    return initial_isa_state(p.imem, p.dmem, p.ga, pc=p.entry, reg_count=reg_count)


def emit_ma(p: Program, params: MaParams | None = None) -> MaState:
    return initial_ma_state(p.imem, p.dmem, p.ga, pc=p.entry, params=params)


@functools.lru_cache
def load_bundled(name: str) -> Program:
    """Parse one of the programs shipped with the package, once per
    name; a Program is immutable, so callers share it."""
    text = resources.files("teasim.programs").joinpath(f"{name}.asm").read_text()
    return parse(text)
