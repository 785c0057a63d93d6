"""Cycle-accurate out-of-order microarchitecture.

Tomasulo-style core over the architectural model in `isa`: multi-issue
fetch/decode, reservation stations with operand forwarding, a reorder
buffer with in-order commit, memory barriers for the cache-membership
query, TSX rollback via pipeline invalidation, and an insert-only cache
fed at load writeback together with a configurable prefetcher.

The step function is written against an explicit resource `Choice`
(fetch count, stations removed from issue, commits allowed, execution
starts allowed).  The deterministic machine always takes the maximal
choice; the restricted choices exist so that a recorded execution can be
replayed cycle-for-cycle from an invalidated state (see `variants`).

Records are immutable NamedTuples, in this module and every other.  A
frozen dataclass sets each field through `object.__setattr__`, which
made an 11-field `ResStation` about 4x dearer to build (2.0-3.4 us
against 0.44-0.79 us, Python 3.11.7, 2 vCPUs), and its decorator builds
the class's methods at every import: about 0.7 ms per class against
0.09 ms for a NamedTuple (a 4-field record, same host).  So the plain
value records (`MicroInstr`, `asm.Program`, `gen.GenConfig`,
`gen.Case`, `gen.Failure`, `gen.Report`, `refine.Finding`) are
NamedTuples too.  Three dataclasses stay, each for a reason
(tests/test_records.py pins them): `MaParams` and `isa.AccessMap` check
their fields in `__post_init__`, and perfbench's tracer wraps each
`gen.Property` with `dataclasses.replace`, skipping one that is not a
dataclass.

`step_core` and `initial_ma_state` build the per-cycle records
with `tuple.__new__`, which skips the generated constructor's argument
handling (about 0.35 us against 0.85 us per `ResStation`, same host)
and also its arity check, so every record they build lists all its
fields in order (tests/test_records.py checks their lengths).  Each
fetched instruction is decoded once per cycle, read from the one decode
cache: a plain dict (`_decoded`, filled by `decoded`) from instruction
to what the fetch reads, its micro-instructions, their count and the
reservation stations they take (all of them or none: NO_STATION).  A
dict read costs the fetch no call on a hit; the cache is emptied when
it holds DECODE_CACHE_SIZE (8192) entries, so it stays bounded, and
`refine` reads a retired instruction's micro-instructions from it too.
A squash idles only the stations not already idle
(`reset_rs_f`, also how `variants.invl` empties the pipeline).  An
initial state shares the default `MaParams` and
one tuple of idle stations per station count.

Scheduling within a cycle, in order:
  1. the commit batch is read off the pre-state reorder buffer
     (writebacks become commit-visible one cycle later),
  2. stations whose operands were resolved before this cycle may start
     executing (newly issued stations start next cycle at the earliest),
  3. fetched instructions are decoded and issued,
  4. finishing stations write back and forward their results, and loads
     deposit their line plus the prefetch set into the cache,
  5. commit effects are applied in program order; an exception, taken
     jump, or halt empties the pipeline and redirects fetch.

`step_core` makes one pass over the stations for steps 2 and 4: it
counts the idle ones (the fetch group is sized against that count
after the starts, which leave a station busy), starts the ready ones,
and collects the ones that finish, which step 4 then writes back
without a second scan.  This rests on an invariant that
tests/test_ma.py checks, under the maximal step and under replay: only
a station executing with cpc == cyc in the pre-state writes back, so
no station started or issued in a cycle writes back in it (a start
finishes at cyc + 1 at the earliest, and an issued station is not
executing).  Issue builds each micro-instruction's ROB line as it goes,
and step 5 releases each committed writer from the register status in
the same pass over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .isa import (
    MASK32,
    NOOP,
    REG_COUNT,
    AccessMap,
    ChoiceError,
    Instr,
    TsxState,
    compare,
    dmem_read,
    w32,
    zero_rf,
)

# A record built from the tuple of all its fields, in order.
_new = tuple.__new__
# The empty set of stations removed from issue.
_NONE: frozenset[int] = frozenset()

# Micro-instructions that take no reservation station: their ROB line is
# ready at issue and carries the instruction's immediate as its value.
NO_STATION = frozenset({"mhalt", "mtsx-start", "mtsx-end"})
BARRIER_OPS = frozenset({"min-cache"})
MEMORY_OPS = frozenset({"mldri", "mldr"})
INVALIDATING_MOPS = frozenset({"mhalt", "mjg", "mjge"})
CHECK_MOPS = frozenset({"memi-check", "mem-check"})

# Operand slot: None, ("r", reg) or ("c", const).
Slot = tuple[str, int] | None


class MicroInstr(NamedTuple):
    """Micro-instruction with J/K source slots resolved at decode; rd is
    set exactly when it writes a register."""

    mop: str
    rd: int | None = None
    j: Slot = None
    k: Slot = None
    imm: int = 0  # mtsx-start fallback address


def decode_one(i: Instr) -> tuple[MicroInstr, ...]:
    """Decode an instruction into its micro-instruction sequence.

    Loads split into an access check plus the load proper; everything
    else maps to a single micro-instruction.  `cmp` places its first
    source in the K slot so the comparison result has the architectural
    operand order.  A sequence takes a reservation station per
    micro-instruction, or none at all (NO_STATION).
    """
    op = i.op
    if op == "ldri":
        j, k = ("r", i.r1), ("c", i.imm)
        return (MicroInstr("memi-check", None, j, k),
                MicroInstr("mldri", i.rd, j, k))
    if op == "ldr":
        j, k = ("r", i.r1), ("r", i.r2)
        return (MicroInstr("mem-check", None, j, k),
                MicroInstr("mldr", i.rd, j, k))
    if op == "halt":
        return (MicroInstr("mhalt"),)
    if op == "noop":
        return (MicroInstr("mnoop"),)
    if op == "loadi":
        return (MicroInstr("mloadi", i.rd, None, ("c", i.imm)),)
    if op == "addi":
        return (MicroInstr("maddi", i.rd, ("r", i.r1), ("c", i.imm)),)
    if op in ("add", "mul", "and"):
        return (MicroInstr("m" + op, i.rd, ("r", i.r1), ("r", i.r2)),)
    if op == "cmp":
        return (MicroInstr("mcmp", i.rd, ("r", i.r2), ("r", i.r1)),)
    if op in ("jg", "jge"):
        return (MicroInstr("m" + op, None, ("r", i.r1), ("c", i.imm)),)
    if op == "tsx-start":
        return (MicroInstr("mtsx-start", imm=w32(i.imm)),)
    if op == "tsx-end":
        return (MicroInstr("mtsx-end"),)
    if op == "in-cache":
        return (MicroInstr("min-cache", i.rd, ("r", i.r1), ("r", i.r2)),)
    raise AssertionError(f"unknown op {op!r}")


MAX_DECODE = 2  # largest micro-instruction sequence decode_one produces

# The decode cache (see the module docstring): instruction ->
# (micro-instructions, their count, the stations they take).
Decoded = tuple[tuple[MicroInstr, ...], int, int]
DECODE_CACHE_SIZE = 8192
_decoded: dict[Instr, Decoded] = {}


def decoded(i: Instr) -> Decoded:
    """i's entry in the decode cache: its micro-instructions, their
    count and the reservation stations they take, decoding it on a
    miss.  The cache is emptied when it holds DECODE_CACHE_SIZE."""
    entry = _decoded.get(i)
    if entry is None:
        uops = decode_one(i)
        k = len(uops)
        entry = (uops, k, 0 if uops[0].mop in NO_STATION else k)
        if len(_decoded) >= DECODE_CACHE_SIZE:
            _decoded.clear()
        _decoded[i] = entry
    return entry


class RobLine(NamedTuple):
    rob_id: int
    mop: str
    rdst: int | None
    rdy: bool
    val: int
    excep: bool


class ResStation(NamedTuple):
    rs_id: int
    mop: str | None
    qj: int | None
    qk: int | None
    vj: int
    vk: int
    cpc: int
    busy: bool
    exec: bool
    dst: int
    rb_pc: int


def reset_rs_f(rs_f) -> tuple[ResStation, ...]:
    """The stations with every one idle; an idle one is kept as it is."""
    return tuple(_new(ResStation, (rs.rs_id, rs.mop, rs.qj, rs.qk, rs.vj,
                                   rs.vk, rs.cpc, False, False, rs.dst,
                                   rs.rb_pc)) if rs.busy or rs.exec else rs
                 for rs in rs_f)


@lru_cache(maxsize=None)
def _idle_stations(count: int) -> tuple[ResStation, ...]:
    """count idle stations, built once per count."""
    return tuple(ResStation(i, None, None, None, 0, 0, 0, False, False, 0, 0)
                 for i in range(count))


@lru_cache(maxsize=None)
def id_set(n: int) -> frozenset[int]:
    """The ids 0..n-1, built once per n: every ROB tag of a tag space,
    or every station of a machine."""
    return frozenset(range(n))


# Execution latency in cycles of the micro-instructions that take more
# than one; every other one takes one.
MOP_TIMES = {"mmul": 3, "mldri": 2, "mldr": 2}

# Prefetch policies: ("next", n) caches a+1..a+n, ("stride", step, count)
# caches a+step, a+2*step, ..; ("none",) disables prefetching.  Policies
# only ever name accessible addresses.
PrefetchSpec = tuple
PREFETCH_ARITY = {"none": 0, "next": 1, "stride": 2}

# Upper limit on every size the machine builds or scans per cycle: the
# register file, the stations, the fetch group, the ROB tags and the
# prefetch set of a load.
MAX_SIZE = 256


# A dataclass, for its __post_init__ check (the record rule is above).
@dataclass(frozen=True, slots=True)
class MaParams:
    """The machine's sizes and its prefetch policy, which `run --param`
    sets.  The execution latencies are fixed (MOP_TIMES)."""

    fetch_num: int = 3
    max_rob: int = 19
    rs_count: int = 4
    reg_count: int = REG_COUNT
    prefetch: PrefetchSpec = ("next", 1)

    def __post_init__(self) -> None:
        if self.fetch_num < 1:
            raise ValueError("fetch_num must be at least 1")
        if self.max_rob < MAX_DECODE:
            raise ValueError("max_rob must be at least the decode width")
        if self.rs_count < 1:
            raise ValueError("need at least one reservation station")
        if self.reg_count < 1:
            raise ValueError("reg_count must be at least 1")
        kind, args = self.prefetch[:1], self.prefetch[1:]
        if (not kind or PREFETCH_ARITY.get(kind[0]) != len(args)
                or not all(isinstance(a, int) for a in args)):
            shown = " ".join(map(str, self.prefetch))
            raise ValueError("prefetch must be 'none', 'next N' or "
                             f"'stride S K', got {shown!r}")
        sizes = {"fetch_num": self.fetch_num, "max_rob": self.max_rob,
                 "rs_count": self.rs_count, "reg_count": self.reg_count,
                 "prefetch count": args[-1] if args else 0}
        for name, n in sizes.items():
            if n > MAX_SIZE:
                raise ValueError(f"{name} must be at most {MAX_SIZE}, got {n}")

    @property
    def rob_tag_space(self) -> int:
        # Smallest cyclic tag space keeping in-flight tags fresh.
        return self.max_rob + 1

    def stutter_cap(self) -> int:
        """Upper bound on steps between commits on a live machine."""
        longest = max(MOP_TIMES.values())
        return self.max_rob * longest + 2 * self.fetch_num + 8

    def prefetch_addrs(self, ga: AccessMap, a: int) -> tuple[int, ...]:
        kind = self.prefetch[0]
        if kind == "none":
            return ()
        if kind == "next":
            n = self.prefetch[1]
            cand = [w32(a + i) for i in range(1, n + 1)]
        else:
            step, count = self.prefetch[1], self.prefetch[2]
            cand = [w32(a + step * i) for i in range(1, count + 1)]
        return tuple(p for p in cand if ga.allows(p))


_DEFAULT_PARAMS = MaParams()


class MaState(NamedTuple):
    pc: int
    rf: tuple[int, ...]
    tsx: TsxState
    halt: bool
    imem: dict[int, Instr]
    dmem: dict[int, int]
    ga: AccessMap
    cache: dict[int, int]
    rob: tuple[RobLine, ...]
    rs_f: tuple[ResStation, ...]
    reg_st: dict[int, int]  # register -> tag of the pending writer's ROB line
    cyc: int
    fetch_pc: int
    params: MaParams


def initial_ma_state(
    imem: dict[int, Instr],
    dmem: dict[int, int],
    ga: AccessMap,
    pc: int = 0,
    params: MaParams | None = None,
    cache: dict[int, int] | None = None,
) -> MaState:
    """The machine at pc with an empty pipeline and the given cache
    (empty by default).  It holds imem, dmem and cache as given, not
    copies: no step writes them, and the caller must not either."""
    params = params or _DEFAULT_PARAMS
    rf = zero_rf(params.reg_count)
    return _new(MaState, (
        pc, rf, _new(TsxState, (False, rf, 0)), False, imem, dmem, ga,
        {} if cache is None else cache, (), _idle_stations(params.rs_count),
        {}, 0, pc, params,
    ))


class Choice(NamedTuple):
    """Resource selections for one step of the nondeterministic machine.

    `tags` optionally pins the ROB tags assigned to this cycle's issued
    micro-instructions; replay uses it to reproduce tags that the default
    continue-from-tail assignment cannot recover once older lines have
    committed.  The maximal choice leaves it None.
    """

    n: int
    allow_commit: frozenset[int]
    allow_start: frozenset[int]
    busy_rs: frozenset[int]
    tags: tuple[int, ...] | None = None


def maximal_choice(s: MaState) -> Choice:
    p = s.params
    return Choice(
        n=max_fetch_n(s),
        allow_commit=id_set(p.rob_tag_space),
        allow_start=id_set(p.rs_count),
        busy_rs=_NONE,
    )


class IssueRec(NamedTuple):
    uop: MicroInstr
    tag: int
    rs_id: int | None
    ipc: int  # pc of the parent instruction


class WbRec(NamedTuple):
    rs_id: int
    dst: int
    mop: str
    val: int
    excep: bool
    # Cache lines deposited: a load's own line first, then its prefetch set.
    inserted: tuple[tuple[int, int], ...]


class StepInfo(NamedTuple):
    """Everything one cycle did, for history building and tracing."""

    n: int
    issued: tuple[IssueRec, ...]
    started: tuple[int, ...]
    writebacks: tuple[WbRec, ...]
    batch: tuple[RobLine, ...]
    invalidated: bool
    retired: int


def _fetch_group(
    s: MaState, idle: int
) -> tuple[int, list[MicroInstr], list[int]]:
    """The longest issuable prefix of the fetch group, as (n, its
    micro-instructions, each one's parent pc): the idle stations (idle
    of them) and free ROB lines cover it.  A longer prefix needs no
    fewer resources, so the scan stops at the first instruction that
    does not fit.  Each fetched instruction is decoded once."""
    params = s.params
    free = params.max_rob - len(s.rob)
    imem, fetch_pc = s.imem, s.fetch_pc
    uops: list[MicroInstr] = []
    ipcs: list[int] = []
    cache = _decoded
    needed = taken = 0
    for n in range(params.fetch_num):
        ipc = (fetch_pc + n) & MASK32
        instr = imem.get(ipc, NOOP)
        group, k, stations = cache.get(instr) or decoded(instr)
        needed += stations
        taken += k
        if needed > idle or taken > free:
            return n, uops, ipcs
        uops += group
        ipcs += [ipc] * k
    return params.fetch_num, uops, ipcs


def max_fetch_n(s: MaState) -> int:
    """Largest n (up to the fetch width) whose decoded fetch group fits
    the free stations and ROB lines."""
    return _fetch_group(s, sum(not rs.busy for rs in s.rs_f))[0]


def rob_ids(
    count: int, rob: tuple[RobLine, ...], params: MaParams
) -> tuple[int, ...]:
    """Consecutive fresh tags continuing past the newest ROB line."""
    if count > params.max_rob - len(rob):
        raise ChoiceError("not enough reorder buffer space")
    space = params.rob_tag_space
    start = (rob[-1].rob_id + 1) % space if rob else 0
    end = start + count
    if end <= space:
        return tuple(range(start, end))
    return tuple(range(start, space)) + tuple(range(end - space))


def rob_get(tag: int, rob: tuple[RobLine, ...]) -> RobLine | None:
    for line in rob:
        if line.rob_id == tag:
            return line
    return None


def rob_before(tag: int, rob: tuple[RobLine, ...]) -> tuple[RobLine, ...]:
    """Lines strictly before the line with this tag (all lines if absent)."""
    for i, line in enumerate(rob):
        if line.rob_id == tag:
            return rob[:i]
    return rob


def comp_val(rs: ResStation, s: MaState) -> int:
    """Result of a ready station's micro-operation, from the pre-state."""
    mop = rs.mop
    if mop in MEMORY_OPS:
        return dmem_read(s.dmem, w32(rs.vj + rs.vk))
    if mop == "mand":
        return rs.vj & rs.vk
    if mop in ("maddi", "madd"):
        return w32(rs.vj + rs.vk)
    if mop == "mmul":
        return w32(rs.vj * rs.vk)
    if mop == "mloadi":
        return rs.vk
    if mop == "min-cache":
        return 1 if w32(rs.vj + rs.vk) in s.cache else 0
    if mop == "mcmp":
        return compare(rs.vk, rs.vj)
    if mop in ("mjg", "mjge"):
        taken = rs.vj == 2 or (mop == "mjge" and rs.vj == 1)
        return w32(rs.rb_pc + rs.vk) if taken else w32(rs.rb_pc + 1)
    return 0


def comp_exc(rs: ResStation, s: MaState) -> bool:
    if rs.mop in CHECK_MOPS:
        return not s.ga.allows(w32(rs.vj + rs.vk))
    return False


def to_commit(rob: tuple[RobLine, ...], allow_commit) -> tuple[RobLine, ...]:
    """Ready prefix that commits this cycle, cut at (and including) the
    first exception, jump, or halt line; allow_commit holds the tags that
    may commit, None all of them."""
    batch: list[RobLine] = []
    for line in rob:
        if not line.rdy or (allow_commit is not None
                            and line.rob_id not in allow_commit):
            break
        batch.append(line)
        if line.excep or line.mop in INVALIDATING_MOPS:
            break
    return tuple(batch)


def retired_lines(batch: tuple[RobLine, ...]) -> list[RobLine]:
    """The lines of a commit batch that each complete one instruction.

    A non-faulting access check retires with its load, so only the load
    counts when it commits; a faulting check retires the whole load
    instruction by itself.
    """
    return [l for l in batch if l.excep or l.mop not in CHECK_MOPS]


def _setup_slot(
    slot: Slot,
    old_v: int,
    reg_st: dict[int, int],
    s: MaState,
) -> tuple[int | None, int]:
    """Resolve one source operand at issue: constant, forwarded tag, a
    ready ROB value, or the committed register file.  reg_st includes
    the writers issued earlier in this cycle, whose tags are fresh, so
    never in the pre-state buffer."""
    if slot is None:
        return None, 0
    kind, v = slot
    if kind == "c":
        return None, v & MASK32
    tag = reg_st.get(v)
    if tag is not None:
        line = rob_get(tag, s.rob)
        if line is not None and line.rdy:
            return None, line.val
        return tag, old_v
    return None, s.rf[v]


# What a halted state's step did: nothing.
_HALTED = _new(StepInfo, (0, (), (), (), (), False, 0))


def step_core(s: MaState, choice: Choice | None = None) -> tuple[MaState, StepInfo]:
    """One cycle of the machine; choice None means the maximal choice.

    Raises ChoiceError on a fetch count above the issuable maximum or a
    station shortage induced by busy_rs.
    """
    if s.halt:
        return s, _HALTED

    params = s.params
    cyc = s.cyc
    rob0 = s.rob
    if choice is None:
        allow_commit = allow_start = None  # all of them
    else:
        allow_commit, allow_start = choice.allow_commit, choice.allow_start

    # Commit batch from the pre-state buffer: writebacks from this cycle
    # become commit-visible next cycle.
    batch = to_commit(rob0, allow_commit)
    invalidated = bool(batch) and (batch[-1].excep
                                   or batch[-1].mop in INVALIDATING_MOPS)

    stations = list(s.rs_f)

    # Execution starts: operands resolved before this cycle, the barrier
    # discipline satisfied against the pre-state buffer, and the start
    # allowed by the choice.  The same pass counts the idle stations and
    # finds the ones that finish this cycle: only one executing with
    # cpc == cyc here can, as one started now finishes at cyc + 1 at the
    # earliest and one issued now is not executing.
    idle = 0
    started: list[int] = []
    finishing: list[int] = []
    for i, rs in enumerate(stations):
        if not rs.busy:
            idle += 1
            continue
        if rs.exec:
            if rs.cpc == cyc:
                finishing.append(i)
            continue
        if (rs.qj is not None or rs.qk is not None
                or allow_start is not None and rs.rs_id not in allow_start):
            continue
        mop = rs.mop
        if mop in BARRIER_OPS:
            if any(l.mop in MEMORY_OPS for l in rob_before(rs.dst, rob0)):
                continue
        elif mop in MEMORY_OPS:
            if any(l.mop in BARRIER_OPS for l in rob_before(rs.dst, rob0)):
                continue
        stations[i] = _new(ResStation, (
            rs.rs_id, mop, None, None, rs.vj, rs.vk,
            (cyc + MOP_TIMES.get(mop, 1)) & MASK32, True, True, rs.dst,
            rs.rb_pc,
        ))
        started.append(rs.rs_id)

    # Decode this cycle's fetch group, once; a start leaves its station
    # busy, so the idle count is the pre-state's.
    n, uops, ipcs = _fetch_group(s, idle)
    if choice is None:
        busy_rs: frozenset[int] = _NONE
        tags = None
    else:
        if choice.n > n:
            raise ChoiceError(f"cannot fetch {choice.n} instructions here")
        if choice.n < n:
            # Cut the group before the first micro-instruction of
            # instruction choice.n.
            k = ipcs.index((s.fetch_pc + choice.n) & MASK32)
            n, uops, ipcs = choice.n, uops[:k], ipcs[:k]
        busy_rs = choice.busy_rs
        tags = choice.tags
    if tags is None:
        tags = rob_ids(len(uops), rob0, params) if uops else ()
    elif len(tags) != len(uops):
        raise ChoiceError("tag override length mismatch")

    # Issue into idle stations not removed by the choice; each issued
    # writer becomes its register's pending writer, and each issued
    # micro-instruction gets its ROB line.
    reg_st = dict(s.reg_st)
    issued: list[IssueRec] = []
    fresh: list[RobLine] = []
    for u, tag, ipc in zip(uops, tags, ipcs):
        mop, rd = u.mop, u.rd
        if mop in NO_STATION:
            issued.append(_new(IssueRec, (u, tag, None, ipc)))
            fresh.append(_new(RobLine, (tag, mop, rd, True, u.imm, False)))
            continue
        for pick, rs in enumerate(stations):
            if not rs.busy and rs.rs_id not in busy_rs:
                break
        else:
            raise ChoiceError("no reservation station available for issue")
        qj, vj = _setup_slot(u.j, rs.vj, reg_st, s)
        qk, vk = _setup_slot(u.k, rs.vk, reg_st, s)
        rs_id = rs.rs_id
        stations[pick] = _new(ResStation, (
            rs_id, mop, qj, qk, vj, vk, rs.cpc, True, False, tag, ipc,
        ))
        issued.append(_new(IssueRec, (u, tag, rs_id, ipc)))
        fresh.append(_new(RobLine, (tag, mop, rd, False, u.imm, False)))
        if rd is not None:
            reg_st[rd] = tag

    # Writeback: finishing stations free up, forward their result, and
    # loads deposit their line and the prefetch set into the cache, which
    # is copied at the first fill.
    cache = s.cache
    writebacks: list[WbRec] = []
    for i in finishing:
        rs = stations[i]
        val = comp_val(rs, s)
        exc = comp_exc(rs, s)
        mop = rs.mop
        if mop in MEMORY_OPS:
            dmem = s.dmem
            ea = (rs.vj + rs.vk) & MASK32
            inserted = ((ea, dmem.get(ea, 0)),) + tuple(
                (p, dmem.get(p, 0)) for p in params.prefetch_addrs(s.ga, ea))
            if cache is s.cache:
                cache = dict(cache)
            cache.update(inserted)
        else:
            inserted = ()
        dst = rs.dst
        stations[i] = _new(ResStation, (
            rs.rs_id, mop, rs.qj, rs.qk, rs.vj, rs.vk, rs.cpc,
            False, False, dst, rs.rb_pc,
        ))
        for j, other in enumerate(stations):
            if other.qj == dst or other.qk == dst:
                stations[j] = _new(ResStation, (
                    other.rs_id, other.mop,
                    None if other.qj == dst else other.qj,
                    None if other.qk == dst else other.qk,
                    val if other.qj == dst else other.vj,
                    val if other.qk == dst else other.vk,
                    other.cpc, other.busy, other.exec, other.dst, other.rb_pc,
                ))
        writebacks.append(_new(WbRec, (rs.rs_id, dst, mop, val, exc,
                                       inserted)))

    # Reorder buffer update: drop the committed prefix, apply writebacks,
    # append the issue group.
    if invalidated:
        rob: tuple[RobLine, ...] = ()
    else:
        kept = list(rob0[len(batch):])
        for wb in writebacks:
            # A finishing station's line is in flight, so not committed.
            for i, line in enumerate(kept):
                if line.rob_id == wb.dst:
                    kept[i] = _new(RobLine, (line.rob_id, line.mop, line.rdst,
                                             True, wb.val, wb.excep))
                    break
        rob = tuple(kept + fresh)
        assert len(rob) <= params.max_rob

    # Commit effects, in program order over the batch, counting the
    # instructions retired (see retired_lines) and releasing each
    # committed writer that is still its register's pending one.
    pc, rf, tsx, halt = s.pc, s.rf, s.tsx, s.halt
    retired = len(batch)
    for line in batch:
        mop = line.mop
        if line.excep:
            if tsx.active:
                pc, rf = tsx.fb, tsx.rf
                tsx = _new(TsxState, (False, tsx.rf, tsx.fb))
            else:
                halt = True
        elif mop in CHECK_MOPS:
            retired -= 1  # pc advances when the paired load commits
        elif mop == "mjg" or mop == "mjge":
            pc = line.val
        elif mop == "mhalt":
            pc = (pc + 1) & MASK32
            halt = True
        elif mop == "mtsx-start":
            tsx = _new(TsxState, (True, rf, line.val))
            pc = (pc + 1) & MASK32
        elif mop == "mtsx-end":
            tsx = _new(TsxState, (False, tsx.rf, tsx.fb))
            pc = (pc + 1) & MASK32
        else:
            rd = line.rdst
            if rd is not None:
                rf = rf[:rd] + (line.val,) + rf[rd + 1:]
                if reg_st.get(rd) == line.rob_id:
                    del reg_st[rd]
            pc = (pc + 1) & MASK32

    if invalidated:
        # The pipeline empties: reg_st, and every station not yet idle.
        reg_st = {}
        stations = reset_rs_f(stations)
        fetch_pc = pc
    else:
        fetch_pc = (s.fetch_pc + n) & MASK32

    out = _new(MaState, (
        pc, rf, tsx, halt, s.imem, s.dmem, s.ga, cache, rob, tuple(stations),
        reg_st, (cyc + 1) & MASK32, fetch_pc, params,
    ))
    info = _new(StepInfo, (
        n, tuple(issued), tuple(started), tuple(writebacks), batch,
        invalidated, retired,
    ))
    return out, info


def ma_step(s: MaState) -> MaState:
    """Deterministic step: the maximal resource choice."""
    return step_core(s)[0]


def man_step(s: MaState, choice: Choice) -> MaState:
    """Nondeterministic step under an explicit resource choice."""
    return step_core(s, choice)[0]


def run_ma(s: MaState, max_steps: int) -> tuple[MaState, int]:
    """Step until halt or the budget runs out; returns (state, steps)."""
    for i in range(max_steps):
        if s.halt:
            return s, i
        s = ma_step(s)
    return s, max_steps
