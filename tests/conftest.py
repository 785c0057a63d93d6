import random

import pytest

from teasim import gen, ma, refine, variants
from teasim.gen import GenConfig, _trial_rng
from teasim.refine import check_cache_action, check_wsk_transition, stutter_wit


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def trial_rng(tag: str, i: int) -> random.Random:
    return _trial_rng(0xBEEF, tag, i)


@pytest.fixture
def cfg():
    return GenConfig(seed=0xBEEF)


# A one-wide fetch, two stations and a 2-line ROB: unlike the default
# machine's, its pipeline also empties without a squash.
SMALL = ma.MaParams(fetch_num=1, rs_count=2, max_rob=2)


def on_small_machine(s: ma.MaState) -> ma.MaState:
    """The initial state s, built on the SMALL machine instead."""
    return ma.initial_ma_state(s.imem, s.dmem, s.ga, s.pc, SMALL, s.cache)


def reference_walk(case: gen.Case, max_steps: int, observable: bool,
                   spec) -> list:
    """The walk of `gen._walk` with the action audit under the policy
    spec, if one is given, and then the witness-skipping obligations
    under r_a when observable and r_ic otherwise, run to halt,
    max_steps or 8 findings and never stopped early, taking each
    non-retiring transition's stutter witness by a forward run of its
    own, `stutter_wit(s)`, and handing the policy a fresh run from u."""
    s = gen.initial_state(case)
    findings = []
    for step in range(max_steps):
        if s.halt:
            break
        u, info = ma.step_core(s)
        wit = 0 if info.retired else stutter_wit(s)
        cex = None if spec is None else check_cache_action(
            s, u, info, spec, gen.Lookahead(u))
        found = check_wsk_transition(s, u, info, wit, observable)
        found = found if cex is None else [cex] + found
        findings += [f._replace(step=step) for f in found]
        if len(findings) >= 8:
            break
        s = u
    return findings


@pytest.fixture
def fresh_run():
    """Clear gen's recorded run before and after the test."""
    # A run recorded under other step functions must never be read under a patch.
    gen._run.cache_clear()
    yield
    gen._run.cache_clear()


@pytest.fixture
def stall(monkeypatch, fresh_run):
    """The ROB head never commits a `mul`: a commit batch stops before
    any mmul line, so a program that reaches a mul stops retiring."""
    to_commit = ma.to_commit

    def stalled(rob, allow_commit):
        batch = to_commit(rob, allow_commit)
        for k, line in enumerate(batch):
            if line.mop == "mmul":
                return batch[:k]
        return batch

    monkeypatch.setattr(ma, "to_commit", stalled)


@pytest.fixture
def stale_forwarding(monkeypatch, fresh_run):
    """Issue ignores a ready ROB value: an operand whose writer has
    written back but not yet committed reads the committed register
    file instead."""
    setup_slot = ma._setup_slot

    def stale(slot, old_v, reg_st, s):
        if slot is not None and slot[0] == "r":
            line = ma.rob_get(reg_st.get(slot[1]), s.rob)
            if line is not None and line.rdy:
                return None, s.rf[slot[1]]
        return setup_slot(slot, old_v, reg_st, s)

    monkeypatch.setattr(ma, "_setup_slot", stale)


@pytest.fixture
def and_computes_or(monkeypatch, fresh_run):
    """A station executing `and` computes the bitwise or of its
    operands."""
    comp_val = ma.comp_val

    def wrong(rs, s):
        if rs.mop == "mand":
            return rs.vj | rs.vk
        return comp_val(rs, s)

    monkeypatch.setattr(ma, "comp_val", wrong)


@pytest.fixture
def jumps_do_not_squash(monkeypatch, fresh_run):
    """A committing jump neither ends its commit batch nor invalidates
    the pipeline, so work fetched down the wrong path commits."""
    monkeypatch.setattr(ma, "INVALIDATING_MOPS", frozenset({"mhalt"}))


@pytest.fixture
def in_cache_always_one(monkeypatch, fresh_run):
    """A station executing `in-cache` answers 1, whatever the cache
    holds."""
    comp_val = ma.comp_val

    def always_one(rs, s):
        if rs.mop == "min-cache":
            return 1
        return comp_val(rs, s)

    monkeypatch.setattr(ma, "comp_val", always_one)


@pytest.fixture
def writeback_as_delay(monkeypatch, fresh_run):
    """`next_h` records a writeback as a wait: each `wr-b` status it
    writes is `delay` instead."""
    fold = variants.next_h
    wait = ("delay",)

    def mutant(s, h, info, out):
        h = fold(s, h, info, out)
        return h._replace(lines=tuple(
            sl._replace(statuses=sl.statuses[:-1] + (wait,))
            if sl.statuses[-1] == ("wr-b",) else sl for sl in h.lines))

    for module in (variants, gen, refine):  # every binding of next_h
        monkeypatch.setattr(module, "next_h", mutant)
