"""Random program and state generation, property registry, shrinking.

Programs are contiguous instruction blocks with the entry point at or
just before the block, ending in halt; load addresses are biased to
straddle the user/kernel boundary so faults are exercised.  Every
integer draw goes through `_below`, which draws the same words as
`random.randrange` without its argument handling, so the streams are
CPython 3.11's (tests/test_streams.py pins them).  Entangled
(state, history) pairs come from emitting a program, seeding a valid
cache, and running the history-carrying machine forward a bounded
number of steps from the empty history; the entangled property checks
that one sample.  Each entangled case's deterministic run is computed
once: the generator's halt probe reads it ahead in a `Lookahead`, which
records it up to its halt (`_run` keeps the last case's, keyed by the
case), and the sample's history is then folded over that record
(`case_pair`) instead of running the machine again, starting at the
last squash before the sample, since a squash's history reads nothing
of the one before it (see `variants.next_h`); the sample's own
transition is read off the record too, which a sample past it extends.
The per-transition properties walk instead: from the initial state
(built with its seeded cache in one step, `initial_state`) they follow
the deterministic step once per cycle, so every checked state is
reachable, and hand each transition s -> u to the obligation, with the
stutter witness of s read off the walk's own run (which steps past the
walk's last step when the next retirement lies beyond it), and with
that run after u, in which an authorization policy reads ahead (another
`Lookahead`).  A walk stops at halt, at 8 findings, at its step limit,
or once its future is already checked: when it comes back, with no
finding since, to a state it has seen, either an empty pipeline with
the same committed state or, past the program's last instruction, the
same state up to a shift of addresses, ROB tags and time (see `_walk`).
Their cases carry no forward steps: the same program and cache draws,
without the sample's.

Each registered property pairs a case generator with a checker over the
case; `run_property` drives seeded trials (per-trial streams are split
deterministically from the root seed, so reports are reproducible).  A
failing case is shrunk (`shrink`) in rounds of passes that delete blocks
of instructions, rewind the forward steps and halve immediates, each
pass going on from a candidate that still fails the same obligation
(for a walk, within a step bound), until a round changes nothing or the
budget is spent.  A candidate of an unauthorized fill
(`action-soundness`) is walked with the action audit alone, which reads
nothing the other obligations compute and is read by none of them, so
it fails there exactly when the full walk finds it failing, unless 8
findings of the other obligations stop the full walk first (see
`_walk`).  The report holds the shrunk case and its findings,
re-checked by the full, unbounded check.
"""

from __future__ import annotations

import json
import random
import zlib
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, NamedTuple

from .asm import Program, render
from .isa import MASK32, Instr, cache_invariant_ok
from .ma import MaState, StepInfo, initial_ma_state, step_core
from .refine import (
    AUTH_SPECS,
    Finding,
    check_cache_action,
    check_entangled_sample,
    check_wsk_transition,
)
from .variants import History, init_h, is_initial, next_h
from . import asm

FULL_ACCESS = ((0, MASK32),)


# Shape of a generated program: its length before the final halt, the
# registers its operands use (r0..r(REG_POOL-1)), the top of user memory
# and the relative weights of its operations.
MIN_LEN, MAX_LEN = 2, 12
REG_POOL = 6
ACCESSIBLE_TOP = 0x7F
OP_WEIGHTS: tuple[tuple[str, int], ...] = (
    ("loadi", 18), ("addi", 8), ("add", 8), ("mul", 5), ("and", 4),
    ("cmp", 7), ("jg", 3), ("jge", 3), ("ldri", 14), ("ldr", 9),
    ("tsx-start", 4), ("tsx-end", 3), ("noop", 3), ("in-cache", 9),
)


class GenConfig(NamedTuple):
    seed: int = 0
    trials: int = 100
    max_forward_steps: int = 40
    include_in_cache: bool = True
    include_kernel: bool = True
    max_failures: int = 10


# Most forward steps a case may carry: rebuilding its sample runs the
# history-carrying machine that many steps (10,000 take about a second),
# and generated cases carry at most GenConfig.max_forward_steps.
MAX_FORWARD_STEPS = 10_000


class Case(NamedTuple):
    """Replayable input to a property check."""

    program: Program
    forward_steps: int = 0
    seed_cache: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "program": render(self.program),
            "forward_steps": self.forward_steps,
            "seed_cache": list(map(list, self.seed_cache)),
        }

    @classmethod
    def from_dict(cls, d: dict) -> Case:
        """Inverse of to_dict.  A missing field raises KeyError, a
        malformed one ValueError or TypeError."""
        steps = d["forward_steps"]
        if type(steps) is not int or not 0 <= steps <= MAX_FORWARD_STEPS:
            raise ValueError(f"forward_steps must be an integer from 0 to "
                             f"{MAX_FORWARD_STEPS}, got {steps!r}")
        pairs = d["seed_cache"]
        if type(pairs) is not list or not all(
                type(p) is list and len(p) == 2 and all(type(x) is int for x in p)
                for p in pairs):
            raise ValueError(f"seed_cache must hold [address, value] integer "
                             f"pairs, got {pairs!r}")
        cache = tuple(map(tuple, pairs))
        if type(d["program"]) is not str:
            raise ValueError(f"program must be text, got {d['program']!r}")
        program = asm.parse(d["program"])
        # The ISA's cache invariant: a seeded line is accessible and holds
        # its data memory value.
        seeded = asm.emit_isa(program)._replace(cache=dict(cache))
        if not cache_invariant_ok(seeded):
            raise ValueError(f"seed_cache must hold accessible lines with "
                             f"their memory values, got {d['seed_cache']!r}")
        return cls(program, steps, cache)


def _trial_rng(cfg_seed: int, prop: str, trial: int) -> random.Random:
    h = zlib.crc32(prop.encode())
    return random.Random(((cfg_seed * 0x9E3779B1) ^ (h * 0x85EBCA77)) + trial)


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n), drawing the same words: CPython 3.11's
    `_randbelow_with_getrandbits` without `randrange`'s argument
    handling.  Every integer draw of a generator goes through it."""
    if n <= 0:
        raise ValueError(f"empty range below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _gen_const(cfg: GenConfig, rng: random.Random) -> int:
    top = ACCESSIBLE_TOP
    roll = rng.random()
    if roll < 0.4:
        return _below(rng, max(2, top))
    if roll < 0.8 and cfg.include_kernel:
        # straddle the boundary so derived addresses fault
        return max(0, top - 4 + _below(rng, 12))
    return _below(rng, 32)


@lru_cache(maxsize=None)
def _op_table(include_in_cache: bool) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The operations a program may draw, and their cumulative weights."""
    ops = tuple(op for op, _ in OP_WEIGHTS
                if include_in_cache or op != "in-cache")
    ends = tuple(accumulate(w for op, w in OP_WEIGHTS if op in ops))
    return ops, ends


def _gen_instr(cfg: GenConfig, rng: random.Random, length: int) -> Instr:
    """One instruction, built positionally: (op, rd, r1, r2, imm)."""
    ops, ends = _op_table(cfg.include_in_cache)
    op = ops[bisect_right(ends, _below(rng, ends[-1]))]
    r = lambda: _below(rng, REG_POOL)
    if op == "loadi":
        return Instr("loadi", r(), None, None, _gen_const(cfg, rng))
    if op == "addi":
        return Instr("addi", r(), r(), None, _below(rng, 8))
    if op in ("add", "mul", "and", "cmp", "ldr", "in-cache"):
        return Instr(op, r(), r(), r())
    if op in ("jg", "jge"):
        off = (-3, -2, -1, 2, 3, 4)[_below(rng, 6)]
        return Instr(op, None, r(), None, off & MASK32)
    if op == "ldri":
        if cfg.include_kernel and rng.random() < 0.4:
            # offset straddling the boundary: faults whenever the base
            # register is small
            imm = max(0, ACCESSIBLE_TOP - 3 + _below(rng, 11))
        else:
            imm = _below(rng, 6)
        return Instr("ldri", r(), r(), None, imm)
    if op == "tsx-start":
        return Instr("tsx-start", None, None, None, _below(rng, length + 2))
    if op == "tsx-end":
        return Instr("tsx-end")
    return Instr("noop")


def gen_program(cfg: GenConfig, rng: random.Random) -> Program:
    length = MIN_LEN + _below(rng, MAX_LEN - MIN_LEN + 1)
    base = _below(rng, 4)
    instrs = [_gen_instr(cfg, rng, length) for _ in range(length)]
    instrs.append(Instr("halt"))
    if cfg.include_kernel:
        access = ((0, ACCESSIBLE_TOP),)
        kernel_addr = ACCESSIBLE_TOP + 1 + _below(rng, 64)
        data = [(kernel_addr, 1 + _below(rng, 199))]
    else:
        access = FULL_ACCESS
        data = []
    for _ in range(_below(rng, 4)):
        data.append((_below(rng, ACCESSIBLE_TOP + 1), _below(rng, 256)))
    entry = max(0, base - _below(rng, 2))
    return Program(base, tuple(instrs), tuple(data), access, entry)


def seed_cache(prog: Program, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A valid cache: accessible addresses with their memory values."""
    ga = prog.ga
    dmem = prog.dmem
    pool = [a for a, _ in prog.data if ga.allows(a)]
    pool += [_below(rng, ACCESSIBLE_TOP + 1) for _ in range(2)]
    picked = sorted({a for a in pool if ga.allows(a) and rng.random() < 0.5})
    return tuple((a, dmem.get(a, 0)) for a in picked)


def initial_state(case: Case) -> MaState:
    """The case's emitted program with its seeded cache, built in one
    step; forward_steps is not applied."""
    p = case.program
    return initial_ma_state(p.imem, p.dmem, p.ga, p.entry,
                            cache=dict(case.seed_cache))


class Lookahead:
    """The deterministic run after a state, stepped on demand: item i is
    its i-th transition (u, info), stepped by `step_core` the first time
    something reads it and kept in `steps`, up to a halt, so all its
    readers share one run.  A halted state steps to itself, unkept, so
    iterating goes on without end.  `state` is where the run starts, and
    `pop` moves it one transition on."""

    __slots__ = ("state", "steps")

    def __init__(self, s: MaState) -> None:
        self.state = s
        self.steps: deque[tuple[MaState, StepInfo]] = deque()

    def __getitem__(self, i: int) -> tuple[MaState, StepInfo]:
        steps = self.steps
        while len(steps) <= i:
            s = steps[-1][0] if steps else self.state
            if s.halt:
                return step_core(s)
            steps.append(step_core(s))
        return steps[i]

    def pop(self) -> tuple[MaState, StepInfo]:
        """The first transition (u, info) of a run not halted (`_walk`
        stops at a halt), which the run then starts after: it is removed
        and `state` becomes u."""
        step = self[0]
        self.steps.popleft()
        self.state = step[0]
        return step


@lru_cache(maxsize=1)
def _run(start: Case) -> Lookahead:
    """The deterministic run from the initial state of start, a case
    with no forward steps.  One entry: the generator's halt probe
    records it, and the case's samples read and extend it.  The run is a
    function of the step functions as well, so a test that patches `ma`
    or `variants` clears this memo around the patch."""
    return Lookahead(initial_state(start))


def case_pair(case: Case) -> tuple[MaState, History]:
    """Deterministically rebuild the (state, history) pair of a case.

    The history is folded (`next_h`) over the transitions of the case's
    run (`_run`), up to the sample or to a halt, from the last squash
    before the sample: a squash's history reads nothing of the one it is
    given (see `next_h`), so it is handed the empty history of the state
    it starts from."""
    run = _run(case._replace(forward_steps=0))
    s, start, k = run.state, 0, case.forward_steps
    for i in range(k):
        # next_h keeps a halted h; stopping here saves step_core calls.
        if s.halt:
            k = i
            break
        s, info = run[i]
        if info.invalidated:
            start = i
    s = run[start - 1][0] if start else run.state
    h = init_h(s)
    for i in range(start, k):
        u, info = run[i]
        h = next_h(s, h, info, u)
        s = u
    return s, h


def gen_walk_case(cfg: GenConfig, rng: random.Random) -> Case:
    """A program and its seeded cache: a walk starts from the initial
    state, so the case carries no forward steps."""
    prog = gen_program(cfg, rng)
    return Case(prog, 0, seed_cache(prog, rng))


def gen_entangled_case(cfg: GenConfig, rng: random.Random) -> Case:
    """gen_walk_case's draws, then a number of forward steps."""
    case = gen_walk_case(cfg, rng)
    # Probe the halt time so most samples land mid-flight rather than on
    # the (trivially entangled) halted tail of the run: live counts the
    # steps before the halting one, within the horizon.  The probe
    # records the run that the case's check reads (see _run).
    horizon = cfg.max_forward_steps
    run = _run(case)
    live = next((i for i in range(horizon) if run[i][0].halt), horizon)
    if live > 0 and rng.random() < 0.8:
        k = 1 + _below(rng, live)
    else:
        k = _below(rng, cfg.max_forward_steps + 1)
    return case._replace(forward_steps=k)


# --- property checkers over cases ---

def check_entangled_case(case: Case) -> list[Finding]:
    """The entangled-state obligations on the case's sample, handing over
    its transition, forward_steps transitions into the case's run."""
    s, h = case_pair(case)
    run = _run(case._replace(forward_steps=0))
    return check_entangled_sample(s, h, run[case.forward_steps])


# What a bounded walk looks for: an obligation, and the number of steps
# it may take to fail it (None: as many as the walk's own limit).
Until = tuple[str, int | None]


def _empty_key(s: MaState) -> tuple:
    """A pipeline-empty state's key: its future depends on nothing else
    but cyc, which only shifts times, and stale fields of idle stations,
    which the machine overwrites before reading them.  The cache is
    insert-only and every line holds its memory value (generated seeds
    do, Case.from_dict enforces it on replayed ones, and the machine
    fills lines from memory), so along one walk its size stands for its
    contents."""
    return (s.pc, s.rf, s.tsx, len(s.cache))


def _tail_key(s: MaState) -> tuple:
    """A state past the program's end, up to a shift of addresses, ROB
    tags and time.  Everything in flight there is a one-cycle mnoop with
    no operands and no destination register, so reg_st is empty, an
    executing station's cpc is cyc, its operands are 0 and ready, the
    ROB's tags run on from the head's and a station's ROB line is fixed
    by its rb_pc.  What is left: fetch_pc and rb_pc relative to pc, each
    ROB line's rdy, and each busy station's id and exec."""
    rob = tuple(l.rdy for l in s.rob)
    rs_f = tuple((rs.rs_id, rs.exec, (rs.rb_pc - s.pc) & MASK32)
                 for rs in s.rs_f if rs.busy)
    return (s.rf, s.tsx, len(s.cache), s.fetch_pc - s.pc, rob, rs_f)


def _walk(case: Case, per_step, max_steps: int,
          until: Until | None = None) -> list[Finding]:
    """Check each transition s -> u of the run from the case's initial
    state, stepping the machine once per cycle, until it halts, has
    taken max_steps steps or has made 8 findings; per_step(s, u, info,
    wit, run) only reads the step.  Each finding records its step.  wit,
    the stutter witness of s, is read off the walk's own run, which
    steps ahead to the next retirement, past the walk's last step if
    need be, and is None when none falls within stutter_cap + 1
    transitions.  run is that run after u (a `Lookahead`): per_step may
    read further ahead in it, and the walk then reuses what it stepped.

    The walk also stops, returning what the full walk would, once its
    future is already checked: when a state's key was first seen at a
    step from which on nothing was found.  The deterministic run from
    the later state then repeats the one from the earlier, shifted, and
    so finds nothing either.  Two kinds of state have keys:
      - a pipeline-empty state (`variants.is_initial`), however it was
        reached, keyed by `_empty_key`: (pc, rf, tsx, the cache's size);
      - a state past the program's end (pc above every instruction, and
        fetch_pc unable to wrap before the walk's look-ahead ends),
        keyed by `_tail_key`: every instruction in flight or yet to be
        fetched is an unmapped noop, so its future depends on nothing
        else but the shifts that key takes out.
    So per_step's contract: whether it finds anything may depend on the
    transition only up to these shifts, and not on the fields the keys
    leave out; in particular it never reads cyc.  The checkers in
    `refine` meet it: the commit policy reads the run after u only on a
    fill, and past the program's end nothing in flight is a load, so no
    look-ahead from a tail state reaches past the walk's own.

    until = (obligation, within) also stops the walk after `within`
    steps and after the first step that fails the obligation.  Its
    findings are then a prefix of the full walk's, so an obligation it
    finds failing, the full walk finds failing too.

    Such a walk may check the obligation alone, as `check_spectre_case`
    does for `action-soundness` with the audit alone (`_audit_step`).
    That is exact when the obligation reads nothing the other
    obligations compute and none of them reads it, as the audit, the
    matched run and the witness obligations stand: each step then finds
    the obligation failing alone if and only if it does in the full
    check, and the keys still close the walk, since the audit meets the
    contract above on its own.  So the narrowed walk's first failure of
    the obligation is the full walk's, but for one case: the full walk
    also stops at 8 findings of the other obligations, and so misses a
    failure that comes later, which the narrowed walk finds."""
    target, within = until or (None, None)
    limit = max_steps if within is None else min(max_steps, within)
    s = initial_state(case)
    params = s.params
    cap = params.stutter_cap()
    # Past top every fetch is an unmapped noop; below tail_end no fetch
    # of the walk or its look-ahead wraps around to the program.
    top = max(s.imem, default=-1)
    tail_end = MASK32 - params.fetch_num * (limit + cap + 2)
    # The step at which each key was first seen, and the last step that
    # found something.
    seen: dict[tuple, int] = {}
    last_found = -1
    run = Lookahead(s)
    clear = 0  # the first `clear` transitions of run retire nothing
    findings: list[Finding] = []
    for step in range(limit):
        if s.halt:
            break
        if is_initial(s):
            key = _empty_key(s)
        elif top < s.pc <= s.fetch_pc <= tail_end:
            key = _tail_key(s)
        else:
            key = None
        if key is not None:
            first = seen.setdefault(key, step)
            if last_found < first < step:
                break
        # Step on to the next retirement.
        while clear <= cap and not run[clear][1].retired:
            clear += 1
        wit = clear if clear <= cap else None
        u, info = run.pop()
        if found := per_step(s, u, info, wit, run):
            last_found = step
            findings.extend(f._replace(step=step) for f in found)
            if len(findings) >= 8 or any(f.obligation == target for f in found):
                break
        if clear:
            clear -= 1
        s = u
    return findings


def _walk_check(per_step, max_steps: int, alone: dict | None = None):
    """The check of a walk property, check(case, until=None): see _walk.
    alone maps an obligation to a per-step check of it alone, which a
    walk until the obligation fails takes instead of per_step."""
    alone = alone or {}

    def check(case: Case, until: Until | None = None) -> list[Finding]:
        step = per_step if until is None else alone.get(until[0], per_step)
        return _walk(case, step, max_steps, until)

    return check


# The per-step checks name the obligation checkers and policies when
# called, so that a wrapper installed on a module binding or in
# AUTH_SPECS (perfbench's tracer) sees every step.

def _wsk_step(s, u, info, wit, run):
    return check_wsk_transition(s, u, info, wit)


def _spectre_step(s, u, info, wit, run):
    cex = check_cache_action(s, u, info, AUTH_SPECS["commit"], run)
    found = check_wsk_transition(s, u, info, wit, True)
    return found if cex is None else [cex, *found]


def _audit_step(s, u, info, wit, run):
    cex = check_cache_action(s, u, info, AUTH_SPECS["commit"], run)
    return [] if cex is None else [cex]


# Witness obligations (cache-erased map) along the whole run.  On
# programs without kernel data or `in-cache` (arch-equivalence) they are
# the functional equivalence of the pipeline and the ISA.
check_wsk_case = _walk_check(_wsk_step, 2500)
# The action audit under the designer-intent (commit-time) policy, the
# one check of every cache fill, then the cache-observable witness
# obligations.  The as-built policy (AUTH_SPECS["writeback"]) reads the
# fills off the records the step folds into the cache, so auditing with
# it would pass by construction; no property does.  A walk until an
# unauthorized fill runs the audit alone (see `_walk`).
check_spectre_case = _walk_check(_spectre_step, 400,
                                 {"action-soundness": _audit_step})


# --- registry ---

# A dataclass, since perfbench's tracer wraps gen and check with
# dataclasses.replace (the record rule is in `ma`).
@dataclass(frozen=True)
class Property:
    name: str
    gen: Callable[[GenConfig, random.Random], Case]
    check: Callable[..., list[Finding]]
    adjust: Callable[[GenConfig], GenConfig] = lambda c: c


def _no_ic(cfg: GenConfig) -> GenConfig:
    return cfg._replace(include_in_cache=False)


def _safe(cfg: GenConfig) -> GenConfig:
    return cfg._replace(include_in_cache=False, include_kernel=False)


PROPERTIES: dict[str, Property] = {
    p.name: p
    for p in [
        Property("entangled", gen_entangled_case, check_entangled_case),
        Property("wsk", gen_walk_case, check_wsk_case),
        Property("wsk-safe", gen_walk_case, check_wsk_case, _no_ic),
        Property("spectre", gen_walk_case, check_spectre_case, _no_ic),
        Property("arch-equivalence", gen_walk_case, check_wsk_case, _safe),
    ]
}


class Failure(NamedTuple):
    trial: int
    findings: tuple[Finding, ...]
    case: Case


class Report(NamedTuple):
    prop: str
    seed: int
    # Random trials run: fewer than configured when the run stopped at
    # max_failures.
    trials: int
    failures: tuple[Failure, ...]

    @property
    def tea_count(self) -> int:
        return sum(1 for f in self.failures
                   if any(x.kind.startswith("tea-") for x in f.findings))

    @property
    def functional_count(self) -> int:
        return len(self.failures) - self.tea_count

    def to_dict(self) -> dict:
        return {
            "property": self.prop,
            "seed": self.seed,
            "trials": self.trials,
            "failures": [
                {
                    "trial": f.trial,
                    "findings": [x.to_dict() for x in f.findings],
                    **f.case.to_dict(),
                }
                for f in self.failures
            ],
        }


# Candidates one shrink may check or skip.
SHRINK_BUDGET = 150


def _splice(case: Case, i: int, j: int, new: tuple[Instr, ...] = ()) -> Case:
    """The case with its instructions i to j - 1 replaced by new."""
    instrs = case.program.instrs
    return case._replace(program=case.program._replace(
        instrs=instrs[:i] + new + instrs[j:]))


def _passes(best: Callable[[], Case]):
    """The candidates of a shrink: rounds of passes over the current best
    case, which best() reads after each candidate, each pass going on in
    place from a candidate that still fails.  A round deletes blocks of k
    instructions, k halving from n/2 to 1, then rewinds the forward steps
    to 0, to half and by one, then halves each immediate.  The round that
    changes nothing is the last, so the result is 1-minimal."""
    while True:
        start = best()
        k = max(len(start.program.instrs) // 2, 1)
        while k:
            i = 0
            while i + k <= len(best().program.instrs):
                yield (cand := _splice(best(), i, i + k))
                i += 0 if best() is cand else k
            k //= 2
        for j in range(3):
            while steps := best().forward_steps:
                yield (cand := best()._replace(forward_steps=(
                    0, steps // 2, steps - 1)[j]))
                if best() is not cand:
                    break
        for i, ins in enumerate(best().program.instrs):
            while ins.imm and ins.imm < 0x1000:
                ins = ins._replace(imm=ins.imm // 2)
                yield (cand := _splice(best(), i, i + 1, (ins,)))
                if best() is not cand:
                    break
        if best() is start:
            return


def shrink(prop: Property, case: Case, obligation: str,
           step: int | None) -> Case:
    """Reduction in rounds of passes (`_passes`), keeping each candidate
    that still fails the same obligation, until a round changes nothing
    or SHRINK_BUDGET candidates are checked or skipped.

    A walk's findings carry their step.  When c, the step at which the
    current best case first failed the obligation, is known, a candidate
    fails only if it fails the obligation within 2c + 8 steps, and its
    walk stops there: deleting a loop exit costs a few steps, not a walk
    to max_steps.  step is that of the case's first finding of the
    obligation in its full check (findings come in step order), and None
    for the entangled check, whose findings carry no step.

    Checks are deterministic, so a candidate already found passing under
    a bound at least as large is skipped: a round after a success repeats
    the deletions of the one before, and deleting any of several
    identical instructions gives one program.  A bounded walk's findings
    are a prefix of a longer walk's (see `_walk`), so passing under a
    bound means passing under any smaller one.  A skip still uses
    budget, so the result is the one checking every candidate gives."""

    def first_failure(cand: Case, within: int | None) -> Finding | None:
        found = (prop.check(cand) if within is None
                 else prop.check(cand, (obligation, within)))
        return next((f for f in found if f.obligation == obligation), None)

    best = case
    # candidate -> the largest bound it passed under; without a step
    # every check is unbounded, and every bound None
    passed: dict[Case, int | None] = {}
    for cand in islice(_passes(lambda: best), SHRINK_BUDGET):
        within = None if step is None else 2 * step + 8
        if cand in passed and (within is None or within <= passed[cand]):
            continue
        if found := first_failure(cand, within):
            best, step = cand, found.step
        else:
            passed[cand] = within
    return best


def run_property(
    name: str, cfg: GenConfig, extra_cases: tuple[Case, ...] = ()
) -> Report:
    """Seeded trials of one property; failures are shrunk and re-checked."""
    if name not in PROPERTIES:
        raise KeyError(f"unknown property {name!r}")
    prop = PROPERTIES[name]
    pcfg = prop.adjust(cfg)
    failures: list[Failure] = []

    def record(trial: int, case: Case, findings: list[Finding]) -> None:
        # The shrunk case fails the same obligation (checks are
        # deterministic), so its findings are the ones reported.
        small = shrink(prop, case, findings[0].obligation, findings[0].step)
        failures.append(Failure(trial, tuple(prop.check(small)), small))

    for t, case in enumerate(extra_cases):
        if findings := prop.check(case):
            record(-1 - t, case, findings)
    ran = pcfg.trials
    for i in range(pcfg.trials):
        rng = _trial_rng(pcfg.seed, name, i)
        case = prop.gen(pcfg, rng)
        if findings := prop.check(case):
            record(i, case, findings)
            if len(failures) >= pcfg.max_failures:
                ran = i + 1
                break
    return Report(name, pcfg.seed, ran, tuple(failures))


def report_json(reports: list[Report], suite: str) -> str:
    doc = {
        "schema": "teasim-report/2",
        "suite": suite,
        "reports": [r.to_dict() for r in reports],
        "tea_count": sum(r.tea_count for r in reports),
        "functional_count": sum(r.functional_count for r in reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
