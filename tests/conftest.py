import random

import pytest

from teasim import gen, ma
from teasim.gen import GenConfig, _trial_rng
from teasim.refine import check_wsk_transition, stutter_wit


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def trial_rng(tag: str, i: int) -> random.Random:
    return _trial_rng(0xBEEF, tag, i)


@pytest.fixture
def cfg():
    return GenConfig(seed=0xBEEF)


def reference_walk(case: gen.Case, max_steps: int, spec) -> list:
    """The walk of `gen._walk` with the witness-skipping obligations,
    run to halt, max_steps or 8 findings and never stopped early, taking
    each non-retiring transition's stutter witness by a forward run of
    its own, `stutter_wit(s)`, and handing a policy a fresh run from u."""
    s = gen.initial_state(case)
    findings = []
    for step in range(max_steps):
        if s.halt:
            break
        u, info = ma.step_core(s)
        wit = 0 if info.retired else stutter_wit(s)
        found = check_wsk_transition(s, u, info, wit, spec,
                                     gen.Lookahead(u))
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
