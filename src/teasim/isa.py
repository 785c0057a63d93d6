"""Architectural model: a small 32-bit load/compute ISA.

The machine has a register file, disjoint instruction and data memories
(Harvard layout), TSX-style transactional regions whose register effects
roll back on a faulting load, a fixed accessibility predicate that splits
the address space into user and kernel memory, and an architecturally
visible cache.  Cache contents evolve nondeterministically: on every step
the environment may insert or evict any set of accessible, value-correct
lines.  The `in-cache` instruction queries cache membership and is the
covert channel the microarchitectural model is audited against.

`Instr`, `TsxState` and `IsaState` are immutable NamedTuples, about 4x
cheaper to build than frozen dataclasses (measured in `ma`), and an
`Instr` hashes as a plain tuple when `ma.decode_one` looks it up.  The
hot steps (`_next`, `_write`, `_branch`) build their `IsaState` with
`tuple.__new__`, as `ma.step_core` builds its records; `_write` sets
its register in a list, about 40% cheaper than joining two slices.
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

# Actions authorizing cache inserts: ("cache", addr) or ("prefetch", addr).
AuthAction = tuple[tuple[str, int], ...]


class TsxState(NamedTuple):
    active: bool
    rf: tuple[int, ...]
    fb: int


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
    cache: dict[int, int]


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
    return IsaState(pc, rf, TsxState(False, rf, 0), False, dict(imem), dict(dmem), ga, {})


def fetch_instr(imem: dict[int, Instr], a: int) -> Instr:
    """Instruction at address a, or noop if unmapped."""
    return imem.get(a, NOOP)


def dmem_read(dmem: dict[int, int], a: int) -> int:
    """Unmapped reads yield 0."""
    return dmem.get(a, 0)


def isa_det_step(s: IsaState) -> IsaState:
    """The deterministic sub-step: execute the instruction at pc.

    Left-total: a halted state steps to itself, unmapped pc fetches noop.
    """
    if s.halt:
        return s
    i = s.imem.get(s.pc, NOOP)  # fetch_instr, inlined on this hot path
    try:
        execute = _EXECUTE[i.op]
    except KeyError:
        raise AssertionError(f"unknown op {i.op!r}") from None
    return execute(s, i)


# A record built from the tuple of all its fields, in order.
_new = tuple.__new__


def _next(s: IsaState, rf: tuple[int, ...]) -> IsaState:
    """Fall through to pc + 1 with register file rf."""
    return _new(IsaState, ((s.pc + 1) & MASK32, rf, s.tsx, False, s.imem,
                           s.dmem, s.ga, s.cache))


def _write(s: IsaState, i: Instr, v: int) -> IsaState:
    """Write v to rd and fall through."""
    rf = list(s.rf)
    rf[i.rd] = v
    return _new(IsaState, ((s.pc + 1) & MASK32, tuple(rf), s.tsx, False,
                           s.imem, s.dmem, s.ga, s.cache))


def _branch(s: IsaState, i: Instr, taken: bool) -> IsaState:
    pc = (s.pc + i.imm if taken else s.pc + 1) & MASK32
    return _new(IsaState, (pc, s.rf, s.tsx, False, s.imem, s.dmem, s.ga,
                           s.cache))


def _load(s: IsaState, i: Instr, ea: int) -> IsaState:
    """Fill the line, or fault: roll back a transaction, or halt."""
    if s.ga.allows(ea):
        v = dmem_read(s.dmem, ea)
        cache = dict(s.cache)
        cache[ea] = v
        return _with(_write(s, i, v), cache=cache)
    if s.tsx.active:
        return _with(s, pc=s.tsx.fb, rf=s.tsx.rf,
                     tsx=TsxState(False, s.tsx.rf, s.tsx.fb))
    return _with(s, halt=True)


# op -> the deterministic step of a live state whose pc holds that op.
_EXECUTE = {
    "noop": lambda s, i: _next(s, s.rf),
    "halt": lambda s, i: _with(s, pc=w32(s.pc + 1), halt=True),
    "loadi": lambda s, i: _write(s, i, i.imm & MASK32),
    "addi": lambda s, i: _write(s, i, (s.rf[i.r1] + i.imm) & MASK32),
    "add": lambda s, i: _write(s, i, (s.rf[i.r1] + s.rf[i.r2]) & MASK32),
    "mul": lambda s, i: _write(s, i, (s.rf[i.r1] * s.rf[i.r2]) & MASK32),
    "and": lambda s, i: _write(s, i, s.rf[i.r1] & s.rf[i.r2]),
    "cmp": lambda s, i: _write(s, i, compare(s.rf[i.r1], s.rf[i.r2])),
    "jg": lambda s, i: _branch(s, i, s.rf[i.r1] == 2),
    "jge": lambda s, i: _branch(s, i, s.rf[i.r1] in (1, 2)),
    "tsx-start": lambda s, i: _with(s, pc=w32(s.pc + 1),
                                    tsx=TsxState(True, s.rf, w32(i.imm))),
    "tsx-end": lambda s, i: _with(s, pc=w32(s.pc + 1),
                                  tsx=TsxState(False, s.tsx.rf, s.tsx.fb)),
    "ldri": lambda s, i: _load(s, i, w32(s.rf[i.r1] + i.imm)),
    "ldr": lambda s, i: _load(s, i, w32(s.rf[i.r1] + s.rf[i.r2])),
    "in-cache": lambda s, i: _write(s, i, int(
        s.ga.allows(ea := w32(s.rf[i.r1] + s.rf[i.r2])) and ea in s.cache)),
}


def _with(s: IsaState, **kw) -> IsaState:
    return IsaState(
        kw.get("pc", s.pc),
        kw.get("rf", s.rf),
        kw.get("tsx", s.tsx),
        kw.get("halt", s.halt),
        s.imem,
        s.dmem,
        s.ga,
        kw.get("cache", s.cache),
    )


CacheChoice = tuple[tuple[int, int], ...]


def _check_choice(s: IsaState, pairs, what: str) -> None:
    for a, d in pairs:
        if not s.ga.allows(a):
            raise ChoiceError(f"{what}: address {a:#x} is not accessible")
        if d != dmem_read(s.dmem, a):
            raise ChoiceError(f"{what}: datum {d:#x} wrong for address {a:#x}")


def isa_cache_step(s: IsaState, add: CacheChoice = (), rem: CacheChoice = ()) -> IsaState:
    """Environment cache step: cache' = (cache ∪ add) \\ rem.

    Every pair in add and rem must be accessible and value-correct;
    anything else is an invalid choice and raises ChoiceError.
    """
    _check_choice(s, add, "add")
    _check_choice(s, rem, "rem")
    if not add and not rem:
        return s
    cache = dict(s.cache)
    for a, d in add:
        cache[a] = d
    for a, d in rem:
        if cache.get(a) == d:
            del cache[a]
    return _with(s, cache=cache)


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


def apply_prefetches(
    action: AuthAction,
    dmem: dict[int, int],
    cache: dict[int, int],
    ga: AccessMap,
) -> dict[int, int]:
    """Fold cache/prefetch actions into the cache, left to right.

    Actions on inaccessible addresses are ignored: the environment cannot
    authorize caching of kernel memory.
    """
    out = dict(cache)
    for kind, a in action:
        if kind not in ("cache", "prefetch"):
            raise ValueError(f"bad action kind {kind!r}")
        if ga.allows(a):
            out[a] = dmem_read(dmem, a)
    return out


def label(s: IsaState) -> IsaState:
    """Observation label: the state with the cache erased."""
    return _with(s, cache={})


def cache_invariant_ok(s: IsaState) -> bool:
    """Every cache line is accessible and agrees with data memory."""
    return all(
        s.ga.allows(a) and d == dmem_read(s.dmem, a) for a, d in s.cache.items()
    )
