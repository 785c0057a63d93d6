"""Refinement maps, witness functions, and executable obligations.

The committed work of a pipeline state maps to an architectural state by
discarding everything in flight (`r_ic`, cache erased) or by keeping the
cache observable (`r_a`).

The obligations are one-transition properties.  Each takes a pipeline
step s -> u together with what the cycle did (`u, info = step_core(s)`,
computed by the caller) and reads it against the architectural machine.
One witness-skipping checker serves both maps: a transition that
retires nothing must leave the architectural fields unchanged and reach
a retirement within the stutter bound (the step is deterministic, so
the witness then strictly decreases; the caller supplies the witness,
which a walk reads off its own run), and a retiring transition must be
matched by one architectural run for both maps, `run_ic`, one step per
retired instruction.  Only a committed `in-cache` reads the cache, and
one fill rule holds under both maps: an answer of 1 for a kernel line is
a Meltdown if the pipeline's cache holds the line, and a functional
failure if not.  Any other answer makes a cache choice under r_ic,
through `isa.isa_step`, so the cache-membership results agree; under
r_a it takes the deterministic step `isa_det_step` on the pipeline's
committed cache, which the barrier rule makes exact.  The entangled
obligations likewise take the sample's transition from the caller (and
rest on `variants.is_initial`, the pipeline-empty predicate).
Failures come back as data (findings with a kind and message), never
exceptions.

The cache-action audit compares each transition's actual cache delta
against the lines a designer-supplied authorization policy admits for
it (a policy sees its successor state, the step's record and the run
after it):
`writeback` authorizes exactly the lines this machine fills (including
speculative fills), `commit` authorizes only the lines of retired
loads — the intent policy that the speculative machine violates.  The
audit is the one check of every fill, and the only code here that calls
a policy: the refinement takes its map and no policy, so its
cache-observable matched run only asks that the pipeline hold every
line the architectural run does.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .isa import (
    IsaState,
    dmem_read,
    fetch_instr,
    isa_det_step,
    isa_step,
    w32,
)
from .ma import (
    MaState,
    RobLine,
    StepInfo,
    _new,
    decoded,
    retired_lines,
    step_core,
)
from .variants import History, is_entangled, next_h


def r_ic(s: MaState) -> IsaState:
    """Commitment map: committed architectural state, cache discarded."""
    return _new(IsaState, (s.pc, s.rf, s.tsx, s.halt, s.imem, s.dmem, s.ga,
                           {}))


def r_a(s: MaState) -> IsaState:
    """Commitment map with the cache observable."""
    return _new(IsaState, (s.pc, s.rf, s.tsx, s.halt, s.imem, s.dmem, s.ga,
                           dict(s.cache)))


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
    uops = decoded(instr)[0]
    return uops[0].mop if faulted else uops[-1].mop


def run_ic(
    s: MaState, batch: tuple[RobLine, ...], observable: bool = False,
) -> tuple[IsaState | None, Finding | None]:
    """Architectural run matching a retiring transition s -> u, from
    w = r(s), one step per retired instruction; r is r_a when observable
    and r_ic otherwise.

    Only a committed in-cache reads the cache.  No architectural step
    answers 1 for a kernel line: under either map that is the transient
    execution counterexample when the pipeline's cache at s holds the
    line, and a functional finding when it does not.  Otherwise r_ic
    steps it with a pre-step cache choice picked so its result agrees
    with the pipeline's, and r_a takes the deterministic step on the
    pipeline's committed cache, as for every other instruction, and the
    caller compares its result.  The barrier rule makes that exact: an
    in-cache starts only when no older memory micro-op is in the ROB,
    and younger loads wait until it leaves the ROB, so the cache cannot
    change between its execution and its commit.
    """
    obligation = "wsk-a-run" if observable else "wsk-run"
    v = r_a(s) if observable else r_ic(s)
    for line in retired_lines(batch):
        instr = fetch_instr(v.imem, v.pc)
        if line.mop != _expected_mop(instr, line.excep):
            return None, Finding(
                obligation, "functional",
                f"pipeline committed {line.mop} where the architectural "
                f"stream has {instr.render()!r} at {v.pc:#x}",
            )
        if line.mop != "min-cache":
            v = isa_det_step(v)
            continue
        ea = w32(v.rf[instr.r1] + v.rf[instr.r2])
        if line.val == 1 and not v.ga.allows(ea):
            if ea in s.cache:
                return None, Finding(
                    obligation, "tea-meltdown",
                    f"in-cache observed a cached kernel address "
                    f"{ea:#x}; no architectural cache choice allows it")
            return None, Finding(
                obligation, "functional",
                f"in-cache answered 1 for kernel address {ea:#x}, "
                f"which the pipeline's cache does not hold")
        if observable:
            v = isa_det_step(v)
            continue
        pre_add = pre_rem = ()
        if line.val == 1:
            pre_add = ((ea, dmem_read(v.dmem, ea)),)
        elif v.ga.allows(ea) and ea in v.cache:
            pre_rem = ((ea, dmem_read(v.dmem, ea)),)
        v = isa_step(v, pre_add=pre_add, pre_rem=pre_rem)
    return v, None


def _arch_mismatch(u: MaState | IsaState,
                   v: MaState | IsaState) -> str | None:
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

# An authorization policy maps one transition s -> u, given by where it
# went, what the cycle did and the run after u, to the line addresses it
# admits: each filling load's own line, then its prefetch set.
AuthSpec = Callable[[MaState, StepInfo, Run], tuple[int, ...]]


def auth_writeback(u: MaState, info: StepInfo, run: Run) -> tuple[int, ...]:
    """Authorize exactly the fills this machine performs: every load
    writeback deposits its line and its prefetch set."""
    return tuple(a for wb in info.writebacks for a, _ in wb.inserted)


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


def auth_commit(u: MaState, info: StepInfo, run: Run) -> tuple[int, ...]:
    """Designer-intent policy: loads fill the cache at writeback only if
    they retire; squashed (transient) loads are authorized no line.  A
    line written back in a cycle is commit-visible only in the next, so
    it never retires in this cycle's batch: the look-ahead starts at u.
    It is also younger than the batch, so when the batch squashes, the
    line goes with it (a later line reusing its ROB tag is not it)."""
    if info.invalidated:
        return ()
    lines: list[int] = []
    for wb in info.writebacks:
        if wb.inserted and _line_commits(u, wb.dst, run):
            for a, _ in wb.inserted:
                lines.append(a)
    return tuple(lines)


AUTH_SPECS: dict[str, AuthSpec] = {
    "writeback": auth_writeback,
    "commit": auth_commit,
}


def check_cache_action(
    s: MaState, u: MaState, info: StepInfo, spec: AuthSpec, run: Run
) -> Finding | None:
    """cache_u must equal cache_s with the lines that spec authorizes
    for the transition s -> u added, each holding its memory value;
    kernel lines cannot be authorized and are ignored.  run is the run
    after u (see Run)."""
    lines = spec(u, info, run)
    if not lines and u.cache is s.cache:
        return None  # step_core builds a new cache only when it fills one
    want = dict(s.cache)
    for a in lines:
        if s.ga.allows(a):
            want[a] = dmem_read(s.dmem, a)
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


def check_wsk_transition(
    s: MaState, u: MaState, info: StepInfo, wit: int | None,
    observable: bool = False,
) -> list[Finding]:
    """All witness-skipping obligations for one transition s -> u (with
    `u, info = step_core(s)` and `wit = stutter_wit(s)`) under r = r_a
    when observable and r = r_ic otherwise.

    No policy is read: the action audit (`check_cache_action`) judges
    the lines the pipeline added, and a caller checks it apart.  So
    under r_a a retiring transition's matched run only needs every line
    it holds to be in the pipeline's cache too.

    A non-retiring step compares pc, rf, tsx and halt of s and u
    directly: label(r(s)) and label(r(u)) hold nothing else a step can
    change, since both share s's memories and access map.  A retiring
    step's matched run, `run_ic` under the same map, builds r(s).
    """
    match = "wsk-a-match" if observable else "wsk-match"
    if info.retired == 0:
        # This constrains only the architectural fields; unauthorized
        # fills are the audit's job.  step_core is deterministic, so a
        # witness within the bound decreases by exactly one: only the
        # bound itself can fail.
        if _arch_mismatch(u, s) is not None:
            return [Finding(match, "functional",
                            "architectural fields changed on a "
                            "non-retiring step")]
        if wit is None:
            return [Finding(match, "liveness",
                            "no commit within the stutter bound")]
        return []

    v, fail = run_ic(s, info.batch, observable)
    if fail is not None:
        return [fail]
    diff = _arch_mismatch(u, v)
    if (diff is None and observable
            and not v.cache.keys() <= u.cache.keys()):
        diff = "cache contents differ"
    if diff is None:
        return []
    return [Finding(match, "functional",
                    f"retired {info.retired} instruction(s) but the matched "
                    f"architectural run disagrees: {diff}")]


# --- entangled-state obligations ---

def check_entangled_sample(s: MaState, h: History,
                           step: tuple[MaState, StepInfo]) -> list[Finding]:
    """The entangled-state obligations for one sample (s, h): the sample
    is entangled, and so is its successor under the step with history.
    step is the sample's transition (u, info) = step_core(s), which the
    caller reads off a recorded run or steps; the successor's history is
    folded over it by `next_h`, whose halt rule keeps a halted sample's
    history.  The two lemmas behind the definition, that the maximal
    choice reproduces the deterministic step and that a pipeline-empty
    state is entangled with the empty history, hold by construction and
    are tested, not checked per sample."""
    if not is_entangled(s, h):
        return [Finding("entangled-sample", "functional",
                        "generated sample is not entangled")]
    u, info = step
    hu = next_h(s, h, info, u)
    if not is_entangled(u, hu):
        return [Finding("entangled-closure", "functional",
                        "successor of an entangled state is not entangled")]
    return []
