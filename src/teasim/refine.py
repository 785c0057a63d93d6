"""Refinement maps, witness functions, and executable obligations.

The committed work of a pipeline state maps to an architectural state by
discarding everything in flight (`r_ic`, cache erased) or by keeping the
cache observable (`r_a`, used for the prefetch/eviction audit).

The obligations are one-transition properties.  Each takes a pipeline
step s -> u together with what the cycle did (`u, info = step_core(s)`,
computed by the caller) and reads it against the architectural machine.
One witness-skipping checker serves both maps: a transition that
retires nothing must leave the architectural fields unchanged and reach
a retirement within the stutter bound (the step is deterministic, so
the witness then strictly decreases; the caller supplies the witness,
which a walk reads off its own run), and a retiring transition must be
matched by running the architectural machine one step per retired
instruction, resolving its cache nondeterminism so the cache-membership
results agree.  Failures come back as data (findings with a kind and
message), never exceptions.

The cache-action audit compares each transition's actual cache delta
against the actions a designer-supplied authorization policy admits for
it (a policy sees the step's record, its successor state and the run
after it):
`writeback` authorizes exactly what this machine does (including
speculative fills), `commit` authorizes only the effects of retired
loads — the intent policy that the speculative machine violates.  The
audit is the one check of every fill: the cache-observable refinement
runs it first, and its matched run then only asks that the pipeline
hold every line the architectural run does.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .isa import (
    AuthAction,
    IsaState,
    apply_prefetches,
    dmem_read,
    fetch_instr,
    isa_det_step,
    isa_step,
    label,
    w32,
)
from .ma import (
    MaState,
    RobLine,
    StepInfo,
    WbRec,
    arch_project,
    decode_one,
    retired_lines,
    step_core,
)
from .variants import History, is_entangled, mah_step


def r_ic(s: MaState) -> IsaState:
    """Commitment map: committed architectural state, cache discarded."""
    return arch_project(s, keep_cache=False)


def r_a(s: MaState) -> IsaState:
    """Commitment map with the cache observable."""
    return arch_project(s, keep_cache=True)


class Finding(NamedTuple):
    """One obligation failure.

    kind is "tea-meltdown" or "tea-spectre" for transient-execution
    evidence, "functional" for plain ISA/MA disagreement, "liveness"
    when the machine exceeds its commit-distance bound.  step is the
    index, from 0, of the failing transition in a walk (see `gen`), and
    None for a finding that no walk made.
    """

    obligation: str
    kind: str
    detail: str
    step: int | None = None

    def to_dict(self) -> dict:
        """The finding as a report lists it: without its step."""
        return {"obligation": self.obligation, "kind": self.kind,
                "detail": self.detail}


def stutter_wit(s: MaState) -> int | None:
    """Steps until this state's next retiring transition.

    Returns None past the configured cap (a liveness violation).  A walk
    reads the same number off its own run (see `gen._walk`); the tests
    hold the two equal.
    """
    if s.halt:
        return 0
    cap = s.params.stutter_cap()
    for k in range(cap + 1):
        s, info = step_core(s)
        if info.retired > 0:
            return k
    return None


def _expected_mop(instr, faulted: bool) -> str | None:
    uops = decode_one(instr)
    return uops[0].mop if faulted else uops[-1].mop


def run_ic(
    w: IsaState, batch: tuple[RobLine, ...]
) -> tuple[IsaState | None, Finding | None]:
    """Architectural run matching a retiring transition.

    Executes one step per retired instruction, picking the pre-step
    cache choice so an in-cache result agrees with what the pipeline
    computed.  A result no legal choice can produce is the transient
    execution counterexample.
    """
    v = w
    for line in retired_lines(batch):
        instr = fetch_instr(v.imem, v.pc)
        if line.mop != _expected_mop(instr, line.excep):
            return None, Finding(
                "wsk-run", "functional",
                f"pipeline committed {line.mop} where the architectural "
                f"stream has {instr.render()!r} at {v.pc:#x}",
            )
        pre_add = pre_rem = ()
        if line.mop == "min-cache":
            ea = w32(v.rf[instr.r1] + v.rf[instr.r2])
            if line.val == 1:
                if not v.ga.allows(ea):
                    return None, Finding(
                        "wsk-run", "tea-meltdown",
                        f"in-cache observed a cached kernel address "
                        f"{ea:#x}; no architectural cache choice allows it",
                    )
                pre_add = ((ea, dmem_read(v.dmem, ea)),)
            elif v.ga.allows(ea) and ea in v.cache:
                pre_rem = ((ea, dmem_read(v.dmem, ea)),)
        v = isa_step(v, pre_add=pre_add, pre_rem=pre_rem)
    return v, None


def _arch_mismatch(u: MaState | IsaState, v: IsaState) -> str | None:
    """How the architectural fields of u and v differ, if they do: it
    reads pc, rf, halt and tsx, which a pipeline state has too."""
    if u.pc != v.pc:
        return f"pc {u.pc:#x} vs {v.pc:#x}"
    if u.rf != v.rf:
        regs = [i for i in range(len(u.rf)) if u.rf[i] != v.rf[i]]
        return f"registers {regs} differ ({[hex(u.rf[i]) for i in regs]} vs "\
               f"{[hex(v.rf[i]) for i in regs]})"
    if u.halt != v.halt:
        return f"halt {u.halt} vs {v.halt}"
    if u.tsx != v.tsx:
        return "tsx state differs"
    return None


# --- cache action audit (Spectre decomposition) ---

# The run after a transition's successor u: its transitions (x, info) out
# of u, in order.  A walk hands over its own look-ahead, which steps on
# as far as it is read (`gen.Lookahead`), so a policy that reads ahead
# steps nothing the walk does not reuse; a caller outside a walk passes
# the run stepped from u.
Run = Iterable[tuple[MaState, StepInfo]]

# An authorization policy maps one transition s -> u, given by what the
# cycle did, where it went and the run after u, to its admitted actions.
AuthSpec = Callable[[StepInfo, MaState, Run], AuthAction]


def _fill_actions(wb: WbRec) -> AuthAction:
    """A load writeback that filled the cache deposits its line, then
    its prefetch set; any other writeback inserts nothing."""
    if not wb.inserted:
        return ()
    return (("cache", wb.inserted[0][0]),) + tuple(
        ("prefetch", a) for a, _ in wb.inserted[1:])


def auth_writeback(info: StepInfo, u: MaState, run: Run) -> AuthAction:
    """Authorize exactly the fills this machine performs: every load
    writeback deposits its line and its prefetch set."""
    return tuple(act for wb in info.writebacks for act in _fill_actions(wb))


def _line_commits(u: MaState, tag: int, run: Run) -> bool:
    """Whether the ROB line with this tag eventually retires (as opposed
    to being squashed by an invalidation), read off the run after u
    within a bounded look-ahead (a halted u steps to itself)."""
    cap = u.params.stutter_cap() * (u.params.max_rob + 2)
    for x, info in islice(run, cap):
        if any(l.rob_id == tag for l in info.batch):
            return True
        if info.invalidated or x.halt:
            return False
    return False


def auth_commit(info: StepInfo, u: MaState, run: Run) -> AuthAction:
    """Designer-intent policy: loads fill the cache at writeback only if
    they retire; squashed (transient) loads emit no actions at all.  A
    line written back in a cycle is commit-visible only in the next, so
    it never retires in this cycle's batch: the look-ahead starts at u.
    It is also younger than the batch, so when the batch squashes, the
    line goes with it (a later line reusing its ROB tag is not it)."""
    if info.invalidated:
        return ()
    acts: list[tuple[str, int]] = []
    for wb in info.writebacks:
        fill = _fill_actions(wb)
        if fill and _line_commits(u, wb.dst, run):
            acts.extend(fill)
    return tuple(acts)


AUTH_SPECS: dict[str, AuthSpec] = {
    "writeback": auth_writeback,
    "commit": auth_commit,
}


def check_cache_action(
    s: MaState, info: StepInfo, u: MaState, spec: AuthSpec, run: Run
) -> Finding | None:
    """cache_u must equal the cache after applying the authorized
    actions of the transition s -> u; kernel addresses cannot be
    authorized and are ignored.  run is the run after u (see Run)."""
    acts = spec(info, u, run)
    if not acts and u.cache is s.cache:
        return None  # step_core builds a new cache only when it fills one
    want = apply_prefetches(acts, s.dmem, s.cache, s.ga)
    if want == u.cache:
        return None
    extra = sorted(a for a, d in u.cache.items() if want.get(a) != d)
    missing = sorted(a for a, d in want.items() if u.cache.get(a) != d)
    parts = []
    if extra:
        parts.append("unauthorized lines " + ", ".join(f"{a:#x}" for a in extra))
    if missing:
        parts.append("authorized but absent " + ", ".join(f"{a:#x}" for a in missing))
    return Finding("action-soundness", "tea-spectre", "; ".join(parts))


def run_ic_c(
    w: IsaState, batch: tuple[RobLine, ...]
) -> tuple[IsaState | None, Finding | None]:
    """Architectural run for the cache-observable refinement.

    The caches already agree, so no cache choice is made: one
    deterministic step per retired instruction.  The pipeline's own
    fills are the action audit's to check.  The generators leave
    in-cache out of these programs; a replayed case may not.
    """
    v = w
    for line in retired_lines(batch):
        instr = fetch_instr(v.imem, v.pc)
        if instr.op == "in-cache":
            return None, Finding("wsk-a-run", "functional",
                                 "in-cache present in an action-labeled run")
        if line.mop != _expected_mop(instr, line.excep):
            return None, Finding(
                "wsk-a-run", "functional",
                f"pipeline committed {line.mop} where the architectural "
                f"stream has {instr.render()!r} at {v.pc:#x}",
            )
        v = isa_det_step(v)
    return v, None


def check_wsk_transition(
    s: MaState, u: MaState, info: StepInfo, wit: int | None,
    spec: AuthSpec | None = None, run: Run | None = None,
) -> list[Finding]:
    """All witness-skipping obligations for one transition s -> u (with
    `u, info = step_core(s)` and `wit = stutter_wit(s)`), with w = r(s).

    With no policy this is the cache-erased (Meltdown) refinement,
    r = r_ic; with one it is the cache-observable refinement, r = r_a,
    and the policy's action audit, which reads run, the run after u (see
    Run), comes first.  The audit judges the lines the pipeline added,
    so a retiring transition's matched run only needs every line it
    holds to be in the pipeline's cache too.

    A non-retiring step compares pc, rf, tsx and halt of s and u
    directly: label(r(s)) and label(r(u)) hold nothing else a step can
    change, since both share s's memories and access map.  r(s) is
    built only on a retiring step, for its matched run.
    """
    findings: list[Finding] = []
    if spec is None:
        match = "wsk-match"
    else:
        match = "wsk-a-match"
        cex = check_cache_action(s, info, u, spec, run)
        if cex is not None:
            findings.append(cex)

    if info.retired == 0:
        # This constrains only the architectural fields; unauthorized
        # fills are the audit's job.  step_core is deterministic, so a
        # witness within the bound decreases by exactly one: only the
        # bound itself can fail.
        if (u.pc != s.pc or u.rf != s.rf or u.tsx != s.tsx
                or u.halt != s.halt):
            findings.append(Finding(match, "functional",
                                    "architectural fields changed on a "
                                    "non-retiring step"))
        elif wit is None:
            findings.append(Finding(match, "liveness",
                                    "no commit within the stutter bound"))
        return findings

    if spec is None:
        v, fail = run_ic(r_ic(s), info.batch)
    else:
        v, fail = run_ic_c(r_a(s), info.batch)
    if fail is not None:
        findings.append(fail)
        return findings
    diff = _arch_mismatch(u, v)
    if (diff is None and spec is not None
            and not v.cache.keys() <= u.cache.keys()):
        diff = "cache contents differ"
    if diff is not None:
        findings.append(Finding(
            match, "functional",
            f"retired {info.retired} instruction(s) but the matched "
            f"architectural run disagrees: {diff}",
        ))
    return findings


# --- entangled-state obligations ---

def is_initial(s: MaState) -> bool:
    return (
        s.fetch_pc == s.pc
        and not s.rob
        and not s.reg_st
        and all(not rs.busy and not rs.exec for rs in s.rs_f)
    )


def check_entangled_sample(s: MaState, h: History) -> list[Finding]:
    """The entangled-state obligations for one sample (s, h): the sample
    is entangled, and so is its successor under the step with history.
    The successor is stepped only for an entangled sample.  The two
    lemmas behind the definition, that the maximal choice reproduces the
    deterministic step and that a pipeline-empty state is entangled with
    the empty history, hold by construction and are tested, not checked
    per sample."""
    if not is_entangled(s, h):
        return [Finding("entangled-sample", "functional",
                        "generated sample is not entangled")]
    u, hu, _ = mah_step(s, h)
    if not is_entangled(u, hu):
        return [Finding("entangled-closure", "functional",
                        "successor of an entangled state is not entangled")]
    return []
