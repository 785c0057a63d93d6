"""Snapshot text format, and (state, history) pairs persisted as cases."""

import json

from teasim import asm
from teasim.gen import Case, GenConfig, case_pair, gen_entangled_case
from teasim.snapshot import history_to_text, ma_to_text

from conftest import trial_rng


def test_random_pairs_round_trip():
    # Snapshots are never parsed: a bundle persists a pair as the case
    # record that rebuilds it.
    cfg = GenConfig(seed=41)
    for i in range(25):
        case = gen_entangled_case(cfg, trial_rng("snap", i))
        again = Case.from_dict(json.loads(json.dumps(case.to_dict())))
        assert again == case
        (s, h), (t, g) = case_pair(case), case_pair(again)
        assert ma_to_text(t) == ma_to_text(s)
        assert history_to_text(g, t.dmem) == history_to_text(h, s.dmem)


def test_equal_states_equal_text():
    s = asm.emit_ma(asm.load_bundled("primality"))
    t = asm.emit_ma(asm.load_bundled("primality"))
    assert ma_to_text(s) == ma_to_text(t)
    assert ma_to_text(s._replace(cyc=1)) != ma_to_text(t)
