"""History-carrying and replay machinery over the out-of-order core.

A `History` records, per in-flight micro-instruction, one status per
live cycle (issue, execution, writeback, waits), plus the cache as of
the last commit and the pending cache effects of written-back loads.
`invl` rewinds a state to its last commit point with an empty pipeline;
`step_using_h` re-derives the resource choices the machine made from the
history and replays forward.  A (state, history) pair is *entangled*
when that replay reproduces the state exactly — a checkable superset of
the reachable states that every obligation checker quantifies over.

The history is a fold over step records: `next_h` reads one transition
s -> u of the plain machine, with what the cycle did, and extends the
history by it, so `mah_step` is `step_core` plus `next_h`, and a run
already recorded by `step_core` gets its history without stepping again
(`gen.case_pair`).

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

# Status forms: ("fetch", pc, rs_id|None) | ("exec",) | ("wr-b", cache)
# | ("delay",) | ("post-comm",)
Status = tuple


class StatusLine(NamedTuple):
    rob_id: int
    pc: int
    statuses: tuple[Status, ...]


class History(NamedTuple):
    comm_cy: int
    start_cy: int
    comm_cache: dict[int, int]
    ch_eff: dict[int, dict[int, int]]  # tag -> lines to commit to comm_cache
    lines: tuple[StatusLine, ...]  # oldest first, one status per live cycle


def init_h(s: MaState) -> History:
    """Empty history for a pipeline-empty state; it commits to the
    state's cache."""
    return History(s.cyc, s.cyc, dict(s.cache), {}, ())


def next_h(s: MaState, h: History, info: StepInfo, out: MaState) -> History:
    """The history after the transition s -> out of the plain machine,
    `out, info = step_core(s)` from a state s that has not halted."""
    cyc = s.cyc
    will_commit = bool(s.rob) and s.rob[0].rdy
    comm_cy = cyc if will_commit else h.comm_cy

    if info.invalidated:
        # Squashed work leaves only its cache footprint behind.
        return _new(History, (comm_cy, (cyc + 1) & MASK32, dict(out.cache),
                              {}, ()))

    # Committed loads move their pending lines into the committed cache;
    # written-back loads leave theirs pending.  Each dict is copied before
    # its first change.
    comm_cache = h.comm_cache
    ch_eff = h.ch_eff
    batch = info.batch
    if batch:
        ch_eff = dict(ch_eff)
        for line in batch:
            eff = ch_eff.pop(line.rob_id, None)
            if eff and line.mop in MEMORY_OPS:
                if comm_cache is h.comm_cache:
                    comm_cache = dict(comm_cache)
                comm_cache.update(eff)
    for wb in info.writebacks:
        if wb.mop in MEMORY_OPS:
            if ch_eff is h.ch_eff:
                ch_eff = dict(ch_eff)
            ch_eff[wb.dst] = dict(wb.inserted)

    # Status-line removals for this cycle's commits.  A load removes its
    # line and its access check's; a check committing ahead of its load
    # is retained (post-comm) until the load goes.
    removed: set[int] = set()
    retained: set[int] = set()
    space = s.params.rob_tag_space
    for idx, line in enumerate(batch):
        if line.mop in CHECK_MOPS:
            nxt = batch[idx + 1] if idx + 1 < len(batch) else None
            if nxt is None or nxt.mop not in MEMORY_OPS:
                retained.add(line.rob_id)
        elif line.mop in MEMORY_OPS:
            removed.add(line.rob_id)
            removed.add((line.rob_id - 1) % space)
        else:
            removed.add(line.rob_id)

    rob_tags = {l.rob_id: l for l in s.rob}
    station_by_dst = {rs.dst: rs for rs in s.rs_f if rs.busy}
    started = set(info.started)
    new_lines: list[StatusLine] = []
    for sl in h.lines:
        if sl.rob_id in removed:
            continue
        if sl.rob_id in retained or sl.rob_id not in rob_tags:
            st: Status = ("post-comm",)
        elif rob_tags[sl.rob_id].rdy:
            st = ("delay",)
        else:
            rs = station_by_dst.get(sl.rob_id)
            if rs is None:
                st = ("delay",)
            elif rs.exec and rs.cpc == cyc:
                st = ("wr-b", s.cache)
            elif rs.exec or rs.rs_id in started:
                st = ("exec",)
            else:
                st = ("delay",)
        new_lines.append(_new(StatusLine, (sl.rob_id, sl.pc,
                                           sl.statuses + (st,))))
    for rec in info.issued:
        new_lines.append(_new(StatusLine, (
            rec.tag, rec.ipc, (("fetch", rec.ipc, rec.rs_id),))))

    if new_lines:
        # One status per live cycle: the oldest line anchors the window.
        start_cy = (cyc + 1 - len(new_lines[0].statuses)) & MASK32
    else:
        start_cy = 0
    return _new(History, (comm_cy, start_cy, comm_cache, ch_eff,
                          tuple(new_lines)))


def mah_step(s: MaState, h: History) -> tuple[MaState, History, StepInfo]:
    """Deterministic step with history, and what the cycle did: the
    plain machine's step, `step_core`, with the history folded over its
    record by `next_h`; a halted state stays as it is."""
    out, info = step_core(s)
    if s.halt:
        return s, h, info
    return out, next_h(s, h, info, out), info


def comp_start_cyc(s: MaState, h: History) -> int:
    return s.cyc if not h.lines else h.start_cy


def invl(s: MaState, h: History) -> MaState:
    """Rewind to the last commit point: empty pipeline, committed cache,
    fetch redirected to the architectural pc, cycle counter rolled back
    to the oldest in-flight issue."""
    return _new(MaState, (
        s.pc, s.rf, s.tsx, s.halt, s.imem, s.dmem, s.ga, dict(h.comm_cache),
        (), reset_rs_f(s.rs_f), {}, comp_start_cyc(s, h), s.pc, s.params,
    ))


def steps_to_take(s: MaState, h: History) -> int:
    return 0 if not h.lines else w32(s.cyc - h.start_cy)


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
    this replay cycle, what the recorded execution did."""
    tags: list[int] = []  # issued this cycle, in order
    pcs: set[int] = set()  # their instructions
    used_rs: set[int] = set()  # the stations they took
    exec_tags: set[int] = set()
    active: set[int] = set()  # not yet committed
    for tag, pc, st in get_h(h, s.cyc):
        kind = st[0]
        if kind == "post-comm":
            continue
        active.add(tag)
        if kind == "fetch":
            tags.append(tag)
            pcs.add(pc)
            if st[2] is not None:
                used_rs.add(st[2])
        elif kind == "exec":
            exec_tags.add(tag)
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
