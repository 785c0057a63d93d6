"""Generator streams: the first cases of every property, pinned by digest.

A clean report carries no programs, so the golden report does not pin
what the `entangled` or `wsk-safe` generators draw.  This test hashes
the `Case.to_dict` of the first 50 cases of each property at a fixed
seed, drawn as `run_property` draws them.  A change to a generator that
means to keep its random stream (the same rng calls, the same cases)
is held to these digests.  Update them only with a change that means
to alter the cases, and say why in that change.  Acceptance criterion
6's probe, which cannot fail, is pinned the same way over the gate's
own inputs.
"""

import hashlib
import json

import pytest

from teasim import gen

from conftest import trial_rng
from test_acceptance import SEED as ACC_SEED, gen_incache_case

SEED, CASES = 7, 50
SHA256 = {
    "entangled": "792fc3dec0f19147beaed776192c383c24c0cd4756ecee1c93e83b44ed09746a",
    "wsk": "fec5b6b21b1b04e6c62c386aae6948366b0684bbd93f9f3fbcfe6a9d2b6bd3d4",
    "wsk-safe": "9d09fb71dd7edf5d8de54ae6da57ba1e4556f70ef1b78205ccd3e6fcd96184f6",
    "spectre": "3ad9a315a975dbb2d4fb6aca9092403d82f96c2d62689f67a8d9e92ff1500202",
    "arch-equivalence": "8433fb406d59022478c7e362b5fb2cbf9e3e64ee4367f17b90a892af303e0965",
}
INCACHE_SHA256 = "f957e626500aef395128b31313c40c77d00cf985142f5245e7eb4511f955ed6c"


def test_every_property_is_pinned():
    assert set(SHA256) == set(gen.PROPERTIES)


@pytest.mark.parametrize("name", sorted(SHA256))
def test_generated_cases_are_unchanged(name):
    prop = gen.PROPERTIES[name]
    cfg = prop.adjust(gen.GenConfig(seed=SEED))
    digest = hashlib.sha256()
    for i in range(CASES):
        case = prop.gen(cfg, gen._trial_rng(SEED, name, i))
        digest.update(json.dumps(case.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == SHA256[name]


def test_criterion_6_probes_are_unchanged():
    cfg = gen.GenConfig(seed=ACC_SEED + 4)
    digest = hashlib.sha256()
    for i in range(CASES):
        case = gen_incache_case(cfg, trial_rng("acc6", i))
        digest.update(json.dumps(case.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == INCACHE_SHA256
