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

`StatusLine` and `History` are immutable NamedTuples, about 4x cheaper
to build than frozen dataclasses (measured in `ma`).
"""

from __future__ import annotations

from typing import NamedTuple

from .isa import ChoiceError, w32
from .ma import (
    CHECK_MOPS,
    MEMORY_OPS,
    Choice,
    MaState,
    StepInfo,
    man_step,
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


def _prev_tag(tag: int, s: MaState) -> int:
    space = s.params.rob_tag_space
    return (tag - 1) % space


def next_h(s: MaState, h: History, info: StepInfo, out: MaState) -> History:
    """The history after the transition s -> out of the plain machine,
    `out, info = step_core(s)` from a state s that has not halted."""
    cyc = s.cyc
    will_commit = bool(s.rob) and s.rob[0].rdy
    comm_cy = cyc if will_commit else h.comm_cy

    if info.invalidated:
        # Squashed work leaves only its cache footprint behind.
        return History(comm_cy, w32(cyc + 1), dict(out.cache), {}, ())

    comm_cache = h.comm_cache
    ch_eff = h.ch_eff
    committed_loads = [l for l in info.batch if l.mop in MEMORY_OPS]
    if info.batch:
        ch_eff = dict(ch_eff)
        if committed_loads:
            comm_cache = dict(comm_cache)
            for line in committed_loads:
                comm_cache.update(ch_eff.get(line.rob_id, {}))
        for line in info.batch:
            ch_eff.pop(line.rob_id, None)
    wb_loads = [wb for wb in info.writebacks if wb.mop in MEMORY_OPS]
    if wb_loads:
        if ch_eff is h.ch_eff:
            ch_eff = dict(ch_eff)
        for wb in wb_loads:
            ch_eff[wb.dst] = dict(wb.inserted)

    # Status-line removals for this cycle's commits.  A load removes its
    # line and its access check's; a check committing ahead of its load
    # is retained (post-comm) until the load goes.
    removed: set[int] = set()
    retained: set[int] = set()
    batch = info.batch
    for idx, line in enumerate(batch):
        if line.mop in CHECK_MOPS:
            nxt = batch[idx + 1] if idx + 1 < len(batch) else None
            if nxt is None or nxt.mop not in MEMORY_OPS:
                retained.add(line.rob_id)
        elif line.mop in MEMORY_OPS:
            removed.add(line.rob_id)
            removed.add(_prev_tag(line.rob_id, s))
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
        new_lines.append(StatusLine(sl.rob_id, sl.pc, sl.statuses + (st,)))
    for rec in info.issued:
        new_lines.append(
            StatusLine(rec.tag, rec.ipc, (("fetch", rec.ipc, rec.rs_id),))
        )

    if new_lines:
        # One status per live cycle: the oldest line anchors the window.
        start_cy = w32(cyc + 1 - len(new_lines[0].statuses))
    else:
        start_cy = 0
    return History(comm_cy, start_cy, comm_cache, ch_eff, tuple(new_lines))


def mah_step(s: MaState, h: History) -> tuple[MaState, History, StepInfo]:
    """Deterministic step with history, and what the cycle did: the
    plain machine's step, `step_core`, with the history folded over its
    record by `next_h`; a halted state stays as it is."""
    out, info = step_core(s)
    if s.halt:
        return s, h, info
    return out, next_h(s, h, info, out), info


def reset_rs_f(rs_f):
    return tuple(rs._replace(busy=False, exec=False) for rs in rs_f)


def comp_start_cyc(s: MaState, h: History) -> int:
    return s.cyc if not h.lines else h.start_cy


def invl(s: MaState, h: History) -> MaState:
    """Rewind to the last commit point: empty pipeline, committed cache,
    fetch redirected to the architectural pc, cycle counter rolled back
    to the oldest in-flight issue."""
    return MaState(
        pc=s.pc, rf=s.rf, tsx=s.tsx, halt=s.halt,
        imem=s.imem, dmem=s.dmem, ga=s.ga,
        cache=dict(h.comm_cache),
        rob=(), rs_f=reset_rs_f(s.rs_f), reg_st={},
        cyc=comp_start_cyc(s, h), fetch_pc=s.pc, params=s.params,
    )


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
        issue = w32(h.start_cy + anchor - len(sl.statuses))
        off = w32(cyc - issue)
        if off < len(sl.statuses):
            out.append((sl.rob_id, sl.pc, sl.statuses[off]))
    return out


def derive_choice(s: MaState, h: History) -> Choice:
    """Resource choices that make the nondeterministic machine repeat, at
    this replay cycle, what the recorded execution did."""
    entries = get_h(h, s.cyc)
    fetches = [(tag, pc, st) for tag, pc, st in entries if st[0] == "fetch"]
    pcs = {pc for _, pc, _ in fetches}
    used_rs = {st[2] for _, _, st in fetches if st[2] is not None}
    exec_tags = {tag for tag, _, st in entries if st[0] == "exec"}
    active = {tag for tag, _, st in entries if st[0] != "post-comm"}

    p = s.params
    return Choice(
        n=len(pcs),
        allow_commit=frozenset(range(p.rob_tag_space)) - active,
        allow_start=frozenset(
            rs.rs_id for rs in s.rs_f if rs.busy and rs.dst in exec_tags
        ),
        busy_rs=frozenset(range(p.rs_count)) - used_rs,
        tags=tuple(tag for tag, _, _ in fetches),
    )


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
