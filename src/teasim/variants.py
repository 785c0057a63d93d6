"""History-carrying and replay machinery over the out-of-order core.

A `History` records, per in-flight micro-instruction, one status per
live cycle (issue, execution, writeback, waits), plus the cache as of
the last commit and the pending cache effects of written-back loads.
`invl` rewinds a state to its last commit point with an empty pipeline;
`step_using_h` re-derives the resource choices the machine made from the
history and replays forward.  A (state, history) pair is *entangled*
when that replay reproduces the state exactly — a checkable superset of
the reachable states that every obligation checker quantifies over.
A history holds only what that definition reads: each field and status
kind is either the commit point `invl` rewinds to or a choice or check
of the replay (`History` names the reader of each), so a fold that
records any of them wrongly leaves a state that does not replay.
However it was reached, a pipeline-empty state (`is_initial`) is
entangled with `init_h`'s empty history; each window starts where `invl`
rewinds to (`History.start_cy`), the state's own cycle if it is empty.

The history is a fold over step records: `next_h` reads one transition
s -> u under any `Choice`, with what the cycle did, and extends the
history by it (a halted s keeps its history), so `mah_step` is
`step_core` plus `next_h`, and a run already recorded by `step_core`
gets its history without stepping again (`gen.case_pair`).

`StatusLine` and `History` are immutable NamedTuples, by the record
rule in `ma`'s docstring.  `next_h`, `invl` and `derive_choice` build
their records (`History`, `StatusLine`, `MaState`, `Choice`) with
`tuple.__new__`, as `ma.step_core` does; `invl` idles the stations with
`ma.reset_rs_f`, the rule a squash in `step_core` follows, and
`derive_choice` takes its all-tags and all-stations sets from
`ma.id_set`, built once per size.
"""

from __future__ import annotations

from typing import NamedTuple

from .isa import MASK32, ChoiceError, w32
from .ma import (
    CHECK_MOPS,
    MEMORY_OPS,
    Choice,
    MaState,
    StepInfo,
    _new,
    id_set,
    man_step,
    reset_rs_f,
    step_core,
)

# Status forms: ("fetch", rs_id|None) | ("exec",) | ("wr-b",)
# | ("delay",) | ("post-comm",); `History` says what each means.
Status = tuple


class StatusLine(NamedTuple):
    rob_id: int
    pc: int
    statuses: tuple[Status, ...]


class History(NamedTuple):
    """What invalidate-and-replay reads, field by field.

    The commit point that `invl` rewinds to:
    - start_cy: the cycle of the oldest in-flight issue (the state's
      own cycle when nothing is in flight).  `invl` sets the cycle to
      it, `steps_to_take` counts the replay from it, and `get_h` dates
      every line's statuses by it.
    - comm_cache: the cache as of the last commit, a set of line
      addresses like every cache, which `invl` restores (sharing it).
    - ch_eff: per written-back load's tag, the lines it filled (its
      `WbRec.inserted`), which `next_h` adds to comm_cache when the
      load commits.

    The replay's choices and checks:
    - lines: one line per in-flight micro-instruction, oldest first,
      with one status per live cycle.  `derive_choice` reads the
      statuses of each replayed cycle:
      - ("fetch", rs_id|None): issued in the cycle, into that station
        (None: it takes none).  With their lines' pcs they give the
        fetch count, the tags in order and the stations issue may take.
      - ("exec",): started or executing.  Only these stations may
        start.
      - ("wr-b",): writes back in the cycle.  These must be exactly
        the tags of the replayed stations that write back in it, or
        the history does not replay.
      - ("delay",): in flight and waiting, to start, write back or
        commit.  Like every in-flight status, it bars its tag from
        committing in the cycle.
      - ("post-comm",): an access check already committed, kept until
        its load commits.  It is not in flight.
    """

    start_cy: int
    comm_cache: frozenset[int]
    ch_eff: dict[int, tuple[int, ...]]  # tag -> lines to commit to comm_cache
    lines: tuple[StatusLine, ...]  # oldest first, one status per live cycle


def is_initial(s: MaState) -> bool:
    """Whether s is pipeline-empty: nothing in flight, fetch at pc."""
    return (
        s.fetch_pc == s.pc
        and not s.rob
        and not s.reg_st
        and all(not rs.busy and not rs.exec for rs in s.rs_f)
    )


def init_h(s: MaState) -> History:
    """Empty history for a pipeline-empty state; it commits to the
    state's cache."""
    return History(s.cyc, s.cache, {}, ())


def next_h(s: MaState, h: History, info: StepInfo, out: MaState) -> History:
    """The history after the transition s -> out, `out, info =
    step_core(s, choice)` under any `Choice`, read off the step record:
    a cycle commits what its batch holds, and a halted s keeps h.

    The squash rule: on an invalidating transition the result reads
    nothing of h: the history is History(cyc + 1, out's cache, {}, ()),
    whatever h was; `gen.case_pair` starts its fold at the last squash
    for this reason (tests/test_gen.py checks the rule on recorded
    runs)."""
    if s.halt:
        return h
    cyc = s.cyc
    if info.invalidated:
        # Squashed work leaves only its cache footprint behind.
        return _new(History, ((cyc + 1) & MASK32, out.cache, {}, ()))
    batch = info.batch

    # Committed loads move their pending lines into the committed cache;
    # written-back loads, the only writebacks that insert lines, leave
    # theirs pending.  ch_eff is copied before its first change.
    comm_cache = h.comm_cache
    ch_eff = h.ch_eff
    if batch:
        ch_eff = dict(ch_eff)
        for line in batch:
            eff = ch_eff.pop(line.rob_id, None)
            if eff:
                comm_cache = comm_cache.union(eff)
    for wb in info.writebacks:
        if wb.inserted:
            if ch_eff is h.ch_eff:
                ch_eff = dict(ch_eff)
            ch_eff[wb.dst] = wb.inserted

    # Status-line removals for this cycle's commits: every committed line
    # but an access check, which stays (post-comm) until its load, the
    # next tag, commits and removes it.
    removed: set[int] = set()
    space = s.params.rob_tag_space
    for line in batch:
        if line.mop in MEMORY_OPS:
            removed.add((line.rob_id - 1) % space)
        if line.mop not in CHECK_MOPS:
            removed.add(line.rob_id)

    # Each kept line's readiness in the ROB the commits leave (absent:
    # post-comm) and busy station, looked up by tag in maps built at the
    # first line that needs them.
    rdy_by_tag = station_by_dst = None
    new_lines: list[StatusLine] = []
    for sl in h.lines:
        tag = sl.rob_id
        if tag in removed:
            continue
        if rdy_by_tag is None:
            rdy_by_tag = {l.rob_id: l.rdy for l in s.rob[len(batch):]}
            station_by_dst = {rs.dst: rs for rs in s.rs_f if rs.busy}
        rdy = rdy_by_tag.get(tag)
        if rdy is None:
            st: Status = ("post-comm",)
        elif rdy:
            st = ("delay",)
        else:
            rs = station_by_dst.get(tag)
            if rs is None:
                st = ("delay",)
            elif rs.exec and rs.cpc == cyc:
                st = ("wr-b",)
            elif rs.exec or rs.rs_id in info.started:
                st = ("exec",)
            else:
                st = ("delay",)
        new_lines.append(_new(StatusLine, (tag, sl.pc, sl.statuses + (st,))))
    for rec in info.issued:
        new_lines.append(_new(StatusLine, (
            rec.tag, rec.ipc, (("fetch", rec.rs_id),))))

    # One status per live cycle: the oldest line, if any, starts the window.
    start_cy = (cyc + 1 - (len(new_lines[0].statuses) if new_lines else 0)
                ) & MASK32
    return _new(History, (start_cy, comm_cache, ch_eff, tuple(new_lines)))


def mah_step(s: MaState, h: History) -> tuple[MaState, History, StepInfo]:
    """Deterministic step with history, and what the cycle did: the
    plain machine's step, `step_core`, with the history folded over its
    record by `next_h` (a halted state steps to itself, and `next_h`
    leaves its history as it is)."""
    out, info = step_core(s)
    return out, next_h(s, h, info, out), info


def invl(s: MaState, h: History) -> MaState:
    """Rewind to the last commit point: empty pipeline, committed cache,
    fetch redirected to the architectural pc, cycle counter rolled back
    to h.start_cy, the oldest in-flight issue (s's own cycle when
    nothing is in flight)."""
    return _new(MaState, (
        s.pc, s.rf, s.tsx, s.halt, s.imem, s.dmem, s.ga, h.comm_cache,
        (), reset_rs_f(s.rs_f), {}, h.start_cy, s.pc, s.params,
    ))


def steps_to_take(s: MaState, h: History) -> int:
    return w32(s.cyc - h.start_cy)


def get_h(h: History, cyc: int) -> list[tuple[int, int, Status]]:
    """Per-line status during the given cycle, oldest line first.

    Issue cycles are recovered from status counts: every line carries one
    status per live cycle and all lines extend to the same latest cycle.
    """
    if not h.lines:
        return []
    anchor = len(h.lines[0].statuses)
    out = []
    for sl in h.lines:
        issue = (h.start_cy + anchor - len(sl.statuses)) & MASK32
        off = (cyc - issue) & MASK32
        if off < len(sl.statuses):
            out.append((sl.rob_id, sl.pc, sl.statuses[off]))
    return out


def derive_choice(s: MaState, h: History) -> Choice:
    """Resource choices that make the nondeterministic machine repeat, at
    this replay cycle, what the recorded execution did.

    Raises ChoiceError when the cycle's `wr-b` tags are not those of the
    stations that write back in it: only a station executing with
    cpc == cyc writes back (see `ma`), whatever the choice."""
    tags: list[int] = []  # issued this cycle, in order
    pcs: set[int] = set()  # their instructions
    used_rs: set[int] = set()  # the stations they took
    exec_tags: set[int] = set()
    wb_tags: set[int] = set()
    active: set[int] = set()  # not yet committed
    cyc = s.cyc
    for tag, pc, st in get_h(h, cyc):
        kind = st[0]
        if kind == "post-comm":
            continue
        active.add(tag)
        if kind == "fetch":
            tags.append(tag)
            pcs.add(pc)
            if st[1] is not None:
                used_rs.add(st[1])
        elif kind == "exec":
            exec_tags.add(tag)
        elif kind == "wr-b":
            wb_tags.add(tag)
    if wb_tags != {rs.dst for rs in s.rs_f if rs.exec and rs.cpc == cyc}:
        raise ChoiceError("the history's writebacks are not the replay's")
    p = s.params
    return _new(Choice, (
        len(pcs),
        id_set(p.rob_tag_space) - active,
        frozenset(rs.rs_id for rs in s.rs_f if rs.busy and rs.dst in exec_tags),
        id_set(p.rs_count) - used_rs,
        tuple(tags),
    ))


def step_using_h(s: MaState, h: History) -> tuple[MaState, History]:
    """One replay step; the history resolves the nondeterminism and is
    itself left untouched."""
    return man_step(s, derive_choice(s, h)), h


def is_entangled(s: MaState, h: History) -> bool:
    """Whether invalidate-and-replay reproduces the state exactly."""
    k = steps_to_take(s, h)
    x = invl(s, h)
    for _ in range(k):
        try:
            x, _ = step_using_h(x, h)
        except ChoiceError:
            return False
    return x == s
