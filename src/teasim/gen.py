"""Random program and state generation, property registry, shrinking.

Programs are contiguous instruction blocks with the entry point at or
just before the block, ending in halt; load addresses are biased to
straddle the user/kernel boundary so faults are exercised.  Entangled
(state, history) pairs come from emitting a program, seeding a valid
cache, and running the history-carrying machine forward a bounded
number of steps from the empty history; the entangled and replay
properties check that one sample.  The per-transition properties walk
instead: from the emitted, cache-seeded initial state they follow the
deterministic step once per cycle, so every checked state is reachable,
and hand each transition s -> u to the obligation.  Their cases (and
arch-equivalence's) carry no forward steps: the same program and cache
draws, without the sample's.

Each registered property pairs a case generator with a checker over the
case; `run_property` drives seeded trials (per-trial streams are split
deterministically from the root seed, so reports are reproducible).  A
failing case is shrunk greedily: `_smaller` yields the candidates in one
fixed order, and `shrink` keeps the first that still fails the same
obligation and starts over, within SHRINK_BUDGET candidates.  A walk
property's candidate fails only if it fails the obligation within
2c + 8 steps, c being the step at which the current best case first
failed it.  The report holds the shrunk case and its findings,
re-checked by the full, unbounded check.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, replace
from typing import Callable

from .asm import Program, render
from .isa import MASK32, Instr, run_isa
from .ma import MaState, run_ma, step_core
from .refine import (
    AUTH_SPECS,
    Finding,
    check_cache_action,
    check_entangled_sample,
    check_wsk_transition,
    is_initial,
    label,
    r_ic,
)
from .variants import History, init_h, is_entangled, mah_step
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


@dataclass(frozen=True)
class GenConfig:
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


@dataclass(frozen=True)
class Case:
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
        cache = tuple(tuple(pair) for pair in d["seed_cache"])
        if not all(len(p) == 2 and all(type(x) is int for x in p) for p in cache):
            raise ValueError(f"seed_cache must hold [address, value] integer "
                             f"pairs, got {d['seed_cache']!r}")
        if type(d["program"]) is not str:
            raise ValueError(f"program must be text, got {d['program']!r}")
        return cls(asm.parse(d["program"]), steps, cache)


def _trial_rng(cfg_seed: int, prop: str, trial: int) -> random.Random:
    h = zlib.crc32(prop.encode())
    return random.Random(((cfg_seed * 0x9E3779B1) ^ (h * 0x85EBCA77)) + trial)


def _gen_const(cfg: GenConfig, rng: random.Random) -> int:
    top = ACCESSIBLE_TOP
    roll = rng.random()
    if roll < 0.4:
        return rng.randrange(0, max(2, top))
    if roll < 0.8 and cfg.include_kernel:
        # straddle the boundary so derived addresses fault
        return max(0, top + rng.randrange(-4, 8))
    return rng.randrange(0, 32)


def _gen_instr(cfg: GenConfig, rng: random.Random, length: int) -> Instr:
    ops = [(op, w) for op, w in OP_WEIGHTS
           if cfg.include_in_cache or op != "in-cache"]
    total = sum(w for _, w in ops)
    pick = rng.randrange(total)
    for op, w in ops:
        pick -= w
        if pick < 0:
            break
    r = lambda: rng.randrange(REG_POOL)
    if op == "loadi":
        return Instr("loadi", rd=r(), imm=_gen_const(cfg, rng))
    if op == "addi":
        return Instr("addi", rd=r(), r1=r(), imm=rng.randrange(0, 8))
    if op in ("add", "mul", "and", "cmp"):
        return Instr(op, rd=r(), r1=r(), r2=r())
    if op in ("jg", "jge"):
        off = rng.choice([-3, -2, -1, 2, 3, 4])
        return Instr(op, r1=r(), imm=off & MASK32)
    if op == "ldri":
        if cfg.include_kernel and rng.random() < 0.4:
            # offset straddling the boundary: faults whenever the base
            # register is small
            imm = max(0, ACCESSIBLE_TOP + rng.randrange(-3, 8))
        else:
            imm = rng.randrange(0, 6)
        return Instr("ldri", rd=r(), r1=r(), imm=imm)
    if op == "ldr":
        return Instr("ldr", rd=r(), r1=r(), r2=r())
    if op == "tsx-start":
        return Instr("tsx-start", imm=rng.randrange(0, length + 2))
    if op == "tsx-end":
        return Instr("tsx-end")
    if op == "in-cache":
        return Instr("in-cache", rd=r(), r1=r(), r2=r())
    return Instr("noop")


def gen_program(cfg: GenConfig, rng: random.Random) -> Program:
    length = rng.randint(MIN_LEN, MAX_LEN)
    base = rng.randrange(0, 4)
    instrs = [_gen_instr(cfg, rng, length) for _ in range(length)]
    instrs.append(Instr("halt"))
    if cfg.include_kernel:
        access = ((0, ACCESSIBLE_TOP),)
        kernel_addr = ACCESSIBLE_TOP + 1 + rng.randrange(0, 64)
        data = [(kernel_addr, rng.randrange(1, 200))]
    else:
        access = FULL_ACCESS
        data = []
    for _ in range(rng.randrange(0, 4)):
        data.append((rng.randrange(0, ACCESSIBLE_TOP + 1), rng.randrange(0, 256)))
    entry = max(0, base - rng.randrange(0, 2))
    return Program(base, tuple(instrs), tuple(data), access, entry)


def seed_cache(prog: Program, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A valid cache: accessible addresses with their memory values."""
    ga = prog.ga
    dmem = prog.dmem
    pool = [a for a, _ in prog.data if ga.allows(a)]
    pool += [rng.randrange(0, ACCESSIBLE_TOP + 1) for _ in range(2)]
    picked = sorted({a for a in pool if ga.allows(a) and rng.random() < 0.5})
    return tuple((a, dmem.get(a, 0)) for a in picked)


def initial_state(case: Case) -> MaState:
    """The case's emitted program with its seeded cache; forward_steps
    is not applied."""
    return replace(asm.emit_ma(case.program), cache=dict(case.seed_cache))


def case_pair(case: Case) -> tuple[MaState, History]:
    """Deterministically rebuild the (state, history) pair of a case."""
    s = initial_state(case)
    h = init_h(s)
    for _ in range(case.forward_steps):
        if s.halt:
            break
        s, h, _ = mah_step(s, h)
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
    # the (trivially entangled) halted tail of the run.
    x, live = run_ma(initial_state(case), cfg.max_forward_steps)
    if x.halt:
        live -= 1
    if live > 0 and rng.random() < 0.8:
        k = rng.randint(1, live)
    else:
        k = rng.randint(0, cfg.max_forward_steps)
    return replace(case, forward_steps=k)


# --- property checkers over cases ---

def check_entangled_case(case: Case) -> list[Finding]:
    """The entangled-state obligations on the case's sample, which
    starts from an emitted state that must be pipeline-empty."""
    findings: list[Finding] = []
    if not is_initial(asm.emit_ma(case.program)):
        findings.append(Finding("init-entangled", "functional",
                                "emitted state is not pipeline-empty"))
    return findings + check_entangled_sample(*case_pair(case))


def check_replay_case(case: Case) -> list[Finding]:
    s, h = case_pair(case)
    if not is_entangled(s, h):
        return [Finding("replay-identity", "functional",
                        f"replay failed to reproduce the state at cycle {s.cyc}")]
    return []


# What a bounded walk looks for: an obligation, and the number of steps
# it may take to fail it (None: as many as the walk's own limit).
Until = tuple[str, int | None]


def _walk(case: Case, per_step, max_steps: int,
          until: Until | None = None) -> list[Finding]:
    """Check each transition s -> u of the run from the case's initial
    state, stepping the machine once per cycle, until it halts, has
    taken max_steps steps or has made 8 findings; per_step(s, u, info)
    only reads the step.  Each finding records its step.

    until = (obligation, within) also stops the walk after `within`
    steps and after the first step that fails the obligation.  Its
    findings are then a prefix of the full walk's, so an obligation it
    finds failing, the full walk finds failing too."""
    target, within = until or (None, None)
    s = initial_state(case)
    findings: list[Finding] = []
    for step in range(max_steps if within is None else min(max_steps, within)):
        if s.halt:
            break
        u, info = step_core(s)
        found = per_step(s, u, info)
        if found:
            findings.extend(replace(f, step=step) for f in found)
            if len(findings) >= 8 or any(f.obligation == target for f in found):
                break
        s = u
    return findings


def _walk_check(per_step, max_steps: int):
    """The check of a walk property, check(case, until=None): see _walk."""

    def check(case: Case, until: Until | None = None) -> list[Finding]:
        return _walk(case, per_step, max_steps, until)

    return check


# The per-step checks name the obligation checkers and policies when
# called, so that a wrapper installed on a module binding or in
# AUTH_SPECS (perfbench's tracer) sees every step.

def _wsk_step(s, u, info):
    return check_wsk_transition(s, u, info)


def _spectre_step(s, u, info):
    return check_wsk_transition(s, u, info, AUTH_SPECS["commit"])


def _writeback_step(s, u, info):
    cex = check_cache_action(s, info, u, AUTH_SPECS["writeback"])
    return [cex] if cex else []


# Witness obligations (cache-erased map) along the whole run.
check_wsk_case = _walk_check(_wsk_step, 2500)
# Cache-observable witness obligations plus the action audit under the
# designer-intent (commit-time) authorization policy.
check_spectre_case = _walk_check(_spectre_step, 400)
# Sanity: the as-built policy authorizes everything this machine does
# (on kernel-free programs).
check_action_writeback_case = _walk_check(_writeback_step, 400)


def check_arch_equiv_case(case: Case) -> list[Finding]:
    """Run both machines to halt and compare the committed state."""
    isa, _ = run_isa(asm.emit_isa(case.program), 2000)
    if not isa.halt:
        return []  # non-terminating program: vacuous
    ma, _ = run_ma(asm.emit_ma(case.program), 40_000)
    if not ma.halt:
        return [Finding("arch-equivalence", "liveness",
                        "pipeline did not halt where the ISA run halted")]
    got, want = label(r_ic(ma)), label(isa)
    if got != want:
        return [Finding(
            "arch-equivalence", "functional",
            f"final state differs: pc {got.pc:#x}/{want.pc:#x} "
            f"rf {got.rf} vs {want.rf}",
        )]
    return []


def gen_incache_case(cfg: GenConfig, rng: random.Random) -> Case:
    """A probe of a random inaccessible address, with a seeded cache."""
    top = ACCESSIBLE_TOP
    kernel = top + 1 + rng.randrange(0, 1 << 16)
    split = rng.randrange(0, kernel + 1)
    instrs = (
        Instr("loadi", rd=1, imm=split),
        Instr("loadi", rd=2, imm=(kernel - split) & MASK32),
        Instr("in-cache", rd=3, r1=1, r2=2),
        Instr("halt"),
    )
    data = ((rng.randrange(0, top + 1), rng.randrange(0, 99)),)
    prog = Program(0, instrs, data, ((0, top),), 0)
    return Case(prog, 0, seed_cache(prog, rng))


def check_incache_case(case: Case) -> list[Finding]:
    s = replace(asm.emit_isa(case.program), cache=dict(case.seed_cache))
    s, _ = run_isa(s, 8)
    if s.rf[3] != 0:
        return [Finding("incache-constraint", "functional",
                        "in-cache returned 1 for an inaccessible address")]
    return []


# --- registry ---

@dataclass(frozen=True)
class Property:
    name: str
    gen: Callable[[GenConfig, random.Random], Case]
    check: Callable[..., list[Finding]]
    adjust: Callable[[GenConfig], GenConfig] = lambda c: c
    # check(case, until) walks the run and can stop early (see _walk).
    walks: bool = False


def _no_ic(cfg: GenConfig) -> GenConfig:
    return replace(cfg, include_in_cache=False)


def _safe(cfg: GenConfig) -> GenConfig:
    return replace(cfg, include_in_cache=False, include_kernel=False)


PROPERTIES: dict[str, Property] = {
    p.name: p
    for p in [
        Property("entangled", gen_entangled_case, check_entangled_case),
        Property("replay-identity", gen_entangled_case, check_replay_case),
        Property("wsk", gen_walk_case, check_wsk_case, walks=True),
        Property("wsk-safe", gen_walk_case, check_wsk_case, _no_ic,
                 walks=True),
        Property("spectre", gen_walk_case, check_spectre_case, _no_ic,
                 walks=True),
        Property("action-writeback", gen_walk_case,
                 check_action_writeback_case, _safe, walks=True),
        Property("arch-equivalence", gen_walk_case,
                 check_arch_equiv_case, _safe),
        Property("incache-constraint", gen_incache_case, check_incache_case),
    ]
}


@dataclass(frozen=True)
class Failure:
    trial: int
    findings: tuple[Finding, ...]
    case: Case


@dataclass(frozen=True)
class Report:
    prop: str
    seed: int
    trials: int
    failures: tuple[Failure, ...]

    @property
    def tea_count(self) -> int:
        return sum(1 for f in self.failures
                   if any(x.kind.startswith("tea-") for x in f.findings))

    @property
    def functional_count(self) -> int:
        return sum(1 for f in self.failures
                   if all(not x.kind.startswith("tea-") for x in f.findings))

    def to_dict(self) -> dict:
        return {
            "property": self.prop,
            "seed": self.seed,
            "trials": self.trials,
            "failures": [
                {
                    "trial": f.trial,
                    "findings": [
                        {"obligation": x.obligation, "kind": x.kind,
                         "detail": x.detail}
                        for x in f.findings
                    ],
                    **f.case.to_dict(),
                }
                for f in self.failures
            ],
        }


# Candidates one shrink may check.
SHRINK_BUDGET = 150


def _smaller(case: Case):
    """Candidate reductions of a case, in the order shrink tries them:
    drop one instruction, then rewind the forward steps, then halve one
    immediate."""
    prog = case.program
    instrs = prog.instrs
    for i in range(len(instrs)):
        yield replace(case, program=replace(prog, instrs=instrs[:i] + instrs[i + 1:]))
    if case.forward_steps > 0:
        for k in (0, case.forward_steps // 2, case.forward_steps - 1):
            yield replace(case, forward_steps=k)
    for i, ins in enumerate(instrs):
        if ins.imm and ins.imm < 0x1000:
            halved = instrs[:i] + (replace(ins, imm=ins.imm // 2),) + instrs[i + 1:]
            yield replace(case, program=replace(prog, instrs=halved))


def shrink(prop: Property, case: Case, obligation: str) -> Case:
    """Greedy reduction preserving failure of the same obligation: take
    the first candidate that still fails and start over from it, until
    no candidate fails or SHRINK_BUDGET candidates are checked.

    A walk property's candidate counts as failing only if it fails the
    obligation within 2c + 8 steps, where c is the step at which the
    current best case first failed it; its walk stops there.  Deleting
    a loop exit thus costs a few steps, not a walk to max_steps."""

    def first_failure(cand: Case, within: int | None) -> Finding | None:
        found = (prop.check(cand, (obligation, within)) if prop.walks
                 else prop.check(cand))
        return next((f for f in found if f.obligation == obligation), None)

    budget = SHRINK_BUDGET
    best = case
    # A walk property's first failure on the current best case.
    hit = first_failure(case, None) if prop.walks else None
    while True:
        for cand in _smaller(best):
            if budget == 0:
                return best
            budget -= 1
            found = first_failure(cand, 2 * hit.step + 8 if hit else None)
            if found:
                best, hit = cand, found
                break
        else:
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
        small = shrink(prop, case, findings[0].obligation)
        failures.append(Failure(trial, tuple(prop.check(small)), small))

    for t, case in enumerate(extra_cases):
        findings = prop.check(case)
        if findings:
            record(-1 - t, case, findings)
    for i in range(pcfg.trials):
        rng = _trial_rng(pcfg.seed, name, i)
        case = prop.gen(pcfg, rng)
        findings = prop.check(case)
        if findings:
            record(i, case, findings)
            if len(failures) >= pcfg.max_failures:
                break
    return Report(name, pcfg.seed, pcfg.trials, tuple(failures))


def report_json(reports: list[Report], suite: str) -> str:
    doc = {
        "schema": "teasim-report/1",
        "suite": suite,
        "reports": [r.to_dict() for r in reports],
        "tea_count": sum(r.tea_count for r in reports),
        "functional_count": sum(r.functional_count for r in reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
