"""The per-cycle records are immutable, and no step mutates its input.

Setting a field of any record raises.  The steps, the initial state,
the history update, `invl` and `derive_choice` build their records with
`tuple.__new__`, which checks no arity, so every record they build is
checked to hold all its fields.  A cache (a state's `cache`, a
history's `comm_cache`) is a frozenset of line addresses, so `r_a`,
`init_h`, `invl` and a squash in `next_h` share it rather than copy it.
The records also hold dicts (`reg_st`, `dmem`, a history's `ch_eff`)
that the type cannot freeze, so the steps are also checked to leave
every part of their input state, as its text snapshot shows it, as they
found it, and the checks of an entangled case to leave what its
generator recorded of the run they share (`gen._run`) as they found it.

Every other record is a NamedTuple too, except three dataclasses, each
kept for a reason (see `ma`'s module docstring).
"""

import dataclasses
import importlib
import pkgutil

import pytest

import teasim
from teasim import asm, gen
from teasim.isa import Instr, IsaState, TsxState, isa_det_step
from teasim.ma import (
    Choice,
    IssueRec,
    MaState,
    ResStation,
    RobLine,
    StepInfo,
    WbRec,
    maximal_choice,
    step_core,
)
from teasim.refine import r_a
from teasim.snapshot import history_to_text, isa_to_text, ma_to_text
from teasim.variants import (
    History,
    StatusLine,
    derive_choice,
    init_h,
    invl,
    mah_step,
    next_h,
)

from conftest import trial_rng

PROGRAMS = ("meltdown", "spectre", "primality")
MAX_STEPS = 3000  # cuts the 5,923-cycle pipeline run of primality


def ma_run(name):
    """(state, history, what the step did) along a deterministic run."""
    s = asm.emit_ma(asm.load_bundled(name))
    h = init_h(s)
    for _ in range(MAX_STEPS):
        if s.halt:
            return
        s2, h2, info = mah_step(s, h)
        yield s, h, info
        s, h = s2, h2


def record_samples():
    """One record of each per-cycle record type, taken from real runs."""
    seen = {}
    for name in PROGRAMS:
        for s, h, info in ma_run(name):
            for r in (s, s.tsx, h, info, maximal_choice(s), *s.rob,
                      *s.rs_f, *info.issued, *info.writebacks, *h.lines):
                seen.setdefault(type(r), r)
        u = asm.emit_isa(asm.load_bundled(name))
        seen.setdefault(IsaState, u)
        seen.setdefault(Instr, u.imem[u.pc])
    return seen


def test_no_record_field_can_be_set():
    samples = record_samples()
    assert set(samples) == {
        RobLine, ResStation, IssueRec, WbRec, StepInfo, MaState, Choice,
        TsxState, IsaState, Instr, StatusLine, History,
    }
    for record in samples.values():
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("name", PROGRAMS)
def test_ma_steps_leave_their_input_unchanged(name):
    s = asm.emit_ma(asm.load_bundled(name))
    h = init_h(s)
    for _ in range(MAX_STEPS):
        if s.halt:
            break
        before, h_before = ma_to_text(s), history_to_text(h, s.dmem)
        step_core(s)
        assert ma_to_text(s) == before
        s2, h2, _ = mah_step(s, h)
        assert ma_to_text(s) == before
        assert history_to_text(h, s.dmem) == h_before
        s, h = s2, h2


@pytest.mark.parametrize("name", PROGRAMS)
def test_isa_step_leaves_its_input_unchanged(name):
    u = asm.emit_isa(asm.load_bundled(name))
    for _ in range(MAX_STEPS):
        if u.halt:
            break
        before = isa_to_text(u)
        nxt = isa_det_step(u)
        assert isa_to_text(u) == before
        u = nxt
    assert u.halt


@pytest.mark.parametrize("name", PROGRAMS)
def test_caches_are_shared_not_copied(name):
    s = asm.emit_ma(asm.load_bundled(name))
    h = init_h(s)
    assert h.comm_cache is s.cache
    squashes = 0
    for _ in range(MAX_STEPS):
        if s.halt:
            break
        assert r_a(s).cache is s.cache
        assert invl(s, h).cache is h.comm_cache
        u, info = step_core(s)
        hu = next_h(s, h, info, u)
        if info.invalidated:
            assert hu.comm_cache is u.cache
            squashes += 1
        s, h = u, hu
    assert squashes


def test_entangled_checks_leave_the_shared_run_unchanged(fresh_run):
    # A check may extend the record by the sample's successor: case 899
    # has a 40-step probe record and forward_steps 40, and its check
    # grows the record to 41 transitions.  What the probe recorded stays.
    cfg = gen.GenConfig(seed=45)
    grown = 0
    for i in [*range(20), 899]:
        case = gen.gen_entangled_case(cfg, trial_rng("shared-run", i))
        run = gen._run(case._replace(forward_steps=0))
        s, steps = run.state, run.steps
        before = [ma_to_text(x) for x in [s, *(u for u, _ in steps)]]
        runs = [gen.check_entangled_case(case) for _ in range(2)]
        assert runs[0] == runs[1]
        assert gen._run(case._replace(forward_steps=0)).steps is steps
        after = [ma_to_text(x) for x in [s, *(u for u, _ in steps)]]
        assert after[:len(before)] == before
        grown += len(after) > len(before)
    assert grown == 1


def test_step_records_hold_all_their_fields():
    """Every record built with `tuple.__new__`: by the initial state, by
    `step_core`, by `next_h`, by `invl` and by `derive_choice`."""
    cfg = gen.GenConfig(seed=46)
    cases = [gen.Case(asm.load_bundled(name)) for name in PROGRAMS] + [
        gen.gen_walk_case(cfg, trial_rng("arity", i)) for i in range(40)]
    seen = set()

    def check(*records):
        for r in records:
            assert len(r) == len(type(r)._fields), r
            seen.add(type(r))

    for case in cases:
        s = gen.initial_state(case)
        h = init_h(s)
        check(s, s.tsx, *s.rs_f)
        for _ in range(MAX_STEPS):
            if s.halt:
                break
            u, info = step_core(s)
            h = next_h(s, h, info, u)
            s = u
            x = invl(s, h)
            check(s, s.tsx, info, *s.rob, *s.rs_f, *info.issued,
                  *info.writebacks, *info.batch, h, *h.lines, x, *x.rs_f,
                  derive_choice(x, h))
        u = asm.emit_isa(case.program)
        for _ in range(MAX_STEPS):
            if u.halt:
                break
            u = isa_det_step(u)
            assert len(u) == len(IsaState._fields), u
    assert seen == {MaState, TsxState, StepInfo, RobLine, ResStation,
                    IssueRec, WbRec, History, StatusLine, Choice}


# The only dataclasses in teasim, by module.
DATACLASSES = {
    # perfbench's tracer wraps each property's gen and check with
    # dataclasses.replace, and skips a property that is not a dataclass.
    "gen.Property",
    # Both check their fields in __post_init__.
    "ma.MaParams",
    "isa.AccessMap",
}


def test_only_the_kept_dataclasses_remain():
    found = set()
    for info in pkgutil.iter_modules(teasim.__path__):
        mod = importlib.import_module(f"teasim.{info.name}")
        found.update(f"{info.name}.{name}" for name, obj in vars(mod).items()
                     if isinstance(obj, type) and obj.__module__ == mod.__name__
                     and dataclasses.is_dataclass(obj))
    assert found == DATACLASSES
    # Otherwise perfbench's gen.generate and gen.check spans vanish
    # without a word.
    assert all(dataclasses.is_dataclass(p) for p in gen.PROPERTIES.values())
