import random

import pytest

from teasim import gen, ma
from teasim.gen import GenConfig, _trial_rng


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def trial_rng(tag: str, i: int) -> random.Random:
    return _trial_rng(0xBEEF, tag, i)


@pytest.fixture
def cfg():
    return GenConfig(seed=0xBEEF)


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
