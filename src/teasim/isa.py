"""Architectural model: a small 32-bit load/compute ISA.

The machine has a register file, disjoint instruction and data memories
(Harvard layout), TSX-style transactional regions whose register effects
roll back on a faulting load, a fixed accessibility predicate that splits
the address space into user and kernel memory, and an architecturally
visible cache.  Cache contents evolve nondeterministically: on every step
the environment may insert or evict any set of accessible, value-correct
lines.  The ISA has no store, so a line always holds its data memory
value, and the cache is the set of accessible line addresses it holds
(a frozenset, in every layer); a value is read from `dmem` only where
a line is printed or bundled.  The `in-cache` instruction queries cache
membership and is the covert channel the microarchitectural model is
audited against.

`Instr`, `TsxState` and `IsaState` are immutable NamedTuples, by the
record rule in `ma`'s docstring (`AccessMap`, which checks its ranges,
is one of its three dataclasses), and an `Instr` hashes as a plain tuple
when the fetch looks it up in `ma`'s decode cache.

`isa_det_step` is one function with one dispatch, so a register or
branch step makes no call but its own and reads no record field as an
attribute: it unpacks the state and the fetched instruction once,
picks the op's branch from one chain of comparisons, register and
branch ops first, and builds its `IsaState` with `tuple.__new__`, as
`ma.step_core` builds its records.  A register writer computes its
value and falls through to the one register write, which sets the
register in a list (about 40% cheaper than joining two slices).  The
cache-choice step and `label` are off the hot path and use `_replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

MASK32 = 0xFFFF_FFFF
REG_COUNT = 12

# op -> (has rd, register sources, immediate operand position)
# Operand shapes for parsing/validation; see Instr.
OP_SHAPES = {
    "halt": (False, 0, False),
    "noop": (False, 0, False),
    "loadi": (True, 0, True),
    "addi": (True, 1, True),
    "add": (True, 2, False),
    "mul": (True, 2, False),
    "and": (True, 2, False),
    "cmp": (True, 2, False),
    "jg": (False, 1, True),
    "jge": (False, 1, True),
    "ldri": (True, 1, True),
    "ldr": (True, 2, False),
    "tsx-start": (False, 0, True),
    "tsx-end": (False, 0, False),
    "in-cache": (True, 2, False),
}


class ChoiceError(ValueError):
    """An invalid nondeterministic choice (bad cache line or fetch count)."""


def w32(x: int) -> int:
    return x & MASK32


def compare(a: int, b: int) -> int:
    """1 if a = b, 2 if a > b, 0 otherwise."""
    if a == b:
        return 1
    if a > b:
        return 2
    return 0


class Instr(NamedTuple):
    """One instruction; unused operand fields are None."""

    op: str
    rd: int | None = None
    r1: int | None = None
    r2: int | None = None
    imm: int | None = None

    def render(self) -> str:
        parts = [self.op]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.r1 is not None:
            parts.append(f"r{self.r1}")
        if self.r2 is not None:
            parts.append(f"r{self.r2}")
        if self.imm is not None:
            parts.append(str(self.imm))
        return " ".join(parts)


NOOP = Instr("noop")

class TsxState(NamedTuple):
    active: bool
    rf: tuple[int, ...]
    fb: int


# A dataclass, for its __post_init__ check (the record rule is in `ma`).
@dataclass(frozen=True, slots=True)
class AccessMap:
    """Accessibility predicate: sorted disjoint inclusive ranges of user
    memory.  Everything outside is kernel memory.  Never modified by any
    transition."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev_hi = -1
        for lo, hi in self.ranges:
            if not (0 <= lo <= hi <= MASK32):
                raise ValueError(f"bad range {lo:#x}-{hi:#x}")
            if lo <= prev_hi:
                raise ValueError("ranges must be sorted and disjoint")
            prev_hi = hi

    def allows(self, a: int) -> bool:
        for lo, hi in self.ranges:
            if a < lo:
                return False
            if a <= hi:
                return True
        return False


class IsaState(NamedTuple):
    pc: int
    rf: tuple[int, ...]
    tsx: TsxState
    halt: bool
    imem: dict[int, Instr]
    dmem: dict[int, int]
    ga: AccessMap
    cache: frozenset[int]


def zero_rf(reg_count: int = REG_COUNT) -> tuple[int, ...]:
    return (0,) * reg_count


def initial_isa_state(
    imem: dict[int, Instr],
    dmem: dict[int, int],
    ga: AccessMap,
    pc: int = 0,
    reg_count: int = REG_COUNT,
) -> IsaState:
    rf = zero_rf(reg_count)
    return IsaState(pc, rf, TsxState(False, rf, 0), False, dict(imem), dict(dmem), ga,
                    frozenset())


def fetch_instr(imem: dict[int, Instr], a: int) -> Instr:
    """Instruction at address a, or noop if unmapped."""
    return imem.get(a, NOOP)


# A record built from the tuple of all its fields, in order.
_new = tuple.__new__


def isa_det_step(s: IsaState) -> IsaState:
    """The deterministic sub-step: execute the instruction at pc.

    Left-total: a halted state steps to itself, unmapped pc fetches noop.
    A register writer falls through to the one register write at the end.
    """
    pc, rf, tsx, halt, imem, dmem, ga, cache = s
    if halt:
        return s
    try:
        op, rd, r1, r2, imm = imem[pc]
    except KeyError:  # fetch_instr, inlined: unmapped pc fetches noop
        op, rd, r1, r2, imm = NOOP
    nxt = (pc + 1) & MASK32
    if op == "cmp":
        a, b = rf[r1], rf[r2]
        v = 1 if a == b else 2 if a > b else 0  # compare(a, b)
    elif op == "jge" or op == "jg":
        c = rf[r1]
        if c == 2 or c == 1 and op == "jge":
            nxt = (pc + imm) & MASK32
        return _new(IsaState, (nxt, rf, tsx, False, imem, dmem, ga, cache))
    elif op == "add":
        v = (rf[r1] + rf[r2]) & MASK32
    elif op == "addi":
        v = (rf[r1] + imm) & MASK32
    elif op == "loadi":
        v = imm & MASK32
    elif op == "ldri" or op == "ldr":
        # Fill the line, or fault: roll back a transaction, or halt.
        ea = (rf[r1] + (imm if op == "ldri" else rf[r2])) & MASK32
        if not ga.allows(ea):
            if tsx.active:
                return _new(IsaState, (tsx.fb, tsx.rf,
                                       _new(TsxState, (False, tsx.rf, tsx.fb)),
                                       False, imem, dmem, ga, cache))
            return _new(IsaState, (pc, rf, tsx, True, imem, dmem, ga, cache))
        v = dmem.get(ea, 0)
        cache = cache.union((ea,))
    elif op == "mul":
        v = (rf[r1] * rf[r2]) & MASK32
    elif op == "and":
        v = rf[r1] & rf[r2]
    elif op == "in-cache":
        ea = (rf[r1] + rf[r2]) & MASK32
        v = 1 if ga.allows(ea) and ea in cache else 0
    elif op == "noop":
        return _new(IsaState, (nxt, rf, tsx, False, imem, dmem, ga, cache))
    elif op == "halt":
        return _new(IsaState, (nxt, rf, tsx, True, imem, dmem, ga, cache))
    elif op == "tsx-start":
        return _new(IsaState, (nxt, rf, _new(TsxState, (True, rf, imm & MASK32)),
                               False, imem, dmem, ga, cache))
    elif op == "tsx-end":
        return _new(IsaState, (nxt, rf, _new(TsxState, (False, tsx.rf, tsx.fb)),
                               False, imem, dmem, ga, cache))
    else:
        raise AssertionError(f"unknown op {op!r}")
    regs = list(rf)
    regs[rd] = v
    return _new(IsaState, (nxt, tuple(regs), tsx, False, imem, dmem, ga, cache))


CacheChoice = tuple[int, ...]  # line addresses


def _check_choice(s: IsaState, lines: CacheChoice, what: str) -> None:
    for a in lines:
        if not s.ga.allows(a):
            raise ChoiceError(f"{what}: address {a:#x} is not accessible")


def isa_cache_step(s: IsaState, add: CacheChoice = (), rem: CacheChoice = ()) -> IsaState:
    """Environment cache step: cache' = (cache ∪ add) \\ rem.

    Every line in add and rem must be accessible (it then holds its
    memory value); anything else is an invalid choice and raises
    ChoiceError.
    """
    _check_choice(s, add, "add")
    _check_choice(s, rem, "rem")
    if not add and not rem:
        return s
    return s._replace(cache=s.cache.union(add).difference(rem))


def isa_step(
    s: IsaState, pre_add: CacheChoice = (), pre_rem: CacheChoice = ()
) -> IsaState:
    """One full architectural step: cache choice, then instruction.  (A
    cache choice after the instruction is the next step's pre-choice.)"""
    return isa_det_step(isa_cache_step(s, pre_add, pre_rem))


def run_isa(s: IsaState, max_steps: int) -> tuple[IsaState, int]:
    """Step until halt or the budget runs out; returns (state, steps)."""
    for i in range(max_steps):
        if s.halt:
            return s, i
        s = isa_det_step(s)
    return s, max_steps


def label(s: IsaState) -> IsaState:
    """Observation label: the state with the cache erased."""
    return s._replace(cache=frozenset())
