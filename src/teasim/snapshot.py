"""Line-delimited text snapshots of states, histories, and traces.

One record per field; maps are rendered as sorted key:value pairs in
hex so equal states serialize to identical text.  A cache is a set of
line addresses, and its lines print as address:value pairs too, each
value read from data memory; a history holds no memory, so its printer
takes the state's.  Used by the CLI's `run` output and its trace mode.
Snapshots are written, never read back: a counterexample bundle
rebuilds its (state, history) pair from the case that produced it.
"""

from __future__ import annotations

from .isa import IsaState
from .ma import MOP_TIMES, MaState, StepInfo
from .variants import History, Status


def _pairs(m: dict[int, int]) -> str:
    return " ".join(f"{a:#x}:{v:#x}" for a, v in sorted(m.items()))


def _lines(lines, dmem: dict[int, int], sep: str = " ") -> str:
    """Distinct cache lines in order, with their memory values (a load's
    line and its prefetch set are distinct: see `ma.MaParams`)."""
    return sep.join(f"{a:#x}:{dmem.get(a, 0):#x}" for a in sorted(lines))


def _words(ws) -> str:
    return " ".join(f"{w:#x}" for w in ws)


def _arch_lines(s, out: list[str]) -> None:
    out.append(f"pc {s.pc:#x}")
    out.append(f"halt {int(s.halt)}")
    out.append(f"rf {_words(s.rf)}")
    out.append(f"tsx {int(s.tsx.active)} {s.tsx.fb:#x} {_words(s.tsx.rf)}")
    out.append(("access " + " ".join(f"{lo:#x}-{hi:#x}" for lo, hi in s.ga.ranges)).rstrip())
    out.append(f"dmem {_pairs(s.dmem)}".rstrip())
    out.append(f"cache {_lines(s.cache, s.dmem)}".rstrip())
    for a in sorted(s.imem):
        out.append(f"imem {a:#x} {s.imem[a].render()}")


def isa_to_text(s: IsaState) -> str:
    out = ["%teasim-state isa"]
    _arch_lines(s, out)
    return "\n".join(out) + "\n"


def _opt(x) -> str:
    return "-" if x is None else f"{x:#x}"


def ma_to_text(s: MaState) -> str:
    out = ["%teasim-state ma"]
    _arch_lines(s, out)
    out.append(f"cyc {s.cyc:#x}")
    out.append(f"fetch-pc {s.fetch_pc:#x}")
    out.append(("reg-st " + " ".join(
        f"{r}:{t:#x}" for r, t in sorted(s.reg_st.items()))).rstrip())
    for l in s.rob:
        out.append(
            f"rob {l.rob_id:#x} {l.mop} {_opt(l.rdst)} {int(l.rdy)} "
            f"{l.val:#x} {int(l.excep)}"
        )
    for rs in s.rs_f:
        out.append(
            f"rs {rs.rs_id} {rs.mop or '-'} {_opt(rs.qj)} {_opt(rs.qk)} "
            f"{rs.vj:#x} {rs.vk:#x} {rs.cpc:#x} {int(rs.busy)} "
            f"{int(rs.exec)} {rs.dst:#x} {rs.rb_pc:#x}"
        )
    p = s.params
    out.append(f"param fetch-num {p.fetch_num}")
    out.append(f"param max-rob {p.max_rob}")
    out.append(f"param rs-count {p.rs_count}")
    out.append(f"param reg-count {p.reg_count}")
    for mop, t in sorted(MOP_TIMES.items()):
        out.append(f"param mop-time {mop} {t}")
    out.append("param prefetch " + " ".join(str(x) for x in p.prefetch))
    return "\n".join(out) + "\n"


def _status_to_text(pc: int, st: Status) -> str:
    if st[0] == "fetch":
        rsi = "-" if st[1] is None else str(st[1])
        return f"fetch:{pc:#x}:{rsi}"
    return st[0]


def history_to_text(h: History, dmem: dict[int, int]) -> str:
    out = ["%teasim-history"]
    out.append(f"start-cy {h.start_cy:#x}")
    out.append(f"comm-cache {_lines(h.comm_cache, dmem)}".rstrip())
    for tag in sorted(h.ch_eff):
        out.append(f"ch-eff {tag:#x} {_lines(h.ch_eff[tag], dmem)}".rstrip())
    for sl in h.lines:
        sts = " ".join(_status_to_text(sl.pc, st) for st in sl.statuses)
        out.append(f"histline {sl.rob_id:#x} {sl.pc:#x} {sts}")
    return "\n".join(out) + "\n"


def trace_record(cyc: int, info: StepInfo, added: frozenset[int],
                 dmem: dict[int, int]) -> str:
    """One line per cycle for the CLI trace mode; added is the lines
    the cycle put in the cache."""
    parts = [f"cyc {cyc}", f"fetch {info.n}"]
    if info.issued:
        parts.append("issue " + ",".join(
            f"{r.uop.mop}@{r.tag}" + (f"/rs{r.rs_id}" if r.rs_id is not None else "")
            for r in info.issued))
    if info.started:
        parts.append("start " + ",".join(f"rs{i}" for i in info.started))
    if info.writebacks:
        parts.append("wb " + ",".join(
            f"{wb.mop}@{wb.dst}={wb.val:#x}" + ("!" if wb.excep else "")
            for wb in info.writebacks))
    if info.batch:
        parts.append("commit " + ",".join(
            f"{l.mop}@{l.rob_id}" for l in info.batch))
    if info.invalidated:
        parts.append("invalidate")
    if added:
        parts.append("cache+ " + _lines(added, dmem, ","))
    return " | ".join(parts)
