"""Snapshot text format round-trips."""

from dataclasses import replace

from teasim import asm
from teasim.ma import MaParams, run_ma
from teasim.snapshot import (
    history_from_text,
    history_to_text,
    isa_to_text,
    ma_to_text,
    state_from_text,
    state_to_text,
)
from teasim.variants import init_h, mah_step
from teasim.gen import GenConfig, case_pair, gen_entangled_case

from conftest import trial_rng


def test_isa_round_trip():
    s = asm.emit_isa(asm.load_bundled("meltdown"))
    from teasim.isa import isa_det_step
    for _ in range(12):
        s = isa_det_step(s)
    assert state_from_text(isa_to_text(s)) == s


def test_ma_round_trip_midflight():
    s = asm.emit_ma(asm.load_bundled("spectre"))
    s, _ = run_ma(s, 9)
    assert state_from_text(ma_to_text(s)) == s


def test_ma_round_trip_custom_params():
    s = asm.emit_ma(asm.load_bundled("primality"),
                    MaParams(rs_count=6, prefetch=("stride", 2, 2)))
    s, _ = run_ma(s, 20)
    assert state_from_text(state_to_text(s)) == s


def test_history_round_trip():
    s = asm.emit_ma(asm.load_bundled("spectre"))
    h = init_h(s)
    for _ in range(15):
        s, h = mah_step(s, h)
    assert history_from_text(history_to_text(h)) == h


def test_random_pairs_round_trip():
    cfg = GenConfig(seed=41)
    for i in range(25):
        s, h = case_pair(gen_entangled_case(cfg, trial_rng("snap", i)))
        assert state_from_text(state_to_text(s)) == s
        assert history_from_text(history_to_text(h)) == h


def test_equal_states_equal_text():
    s = asm.emit_ma(asm.load_bundled("primality"))
    t = asm.emit_ma(asm.load_bundled("primality"))
    assert state_to_text(s) == state_to_text(t)
    assert state_to_text(replace(s, cyc=1)) != state_to_text(t)
