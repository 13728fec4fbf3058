"""Unit tests for the PAL application layer and analysis bridge."""

from fractions import Fraction

import numpy as np
import pytest

from repro.accel import CordicKernel, KernelError, PalChannelPlan, make_test_tones, run_kernel
from repro.app import (
    PAPER_BLOCK_SIZES,
    PalDecoderConfig,
    decode_functional,
    pal_block_sizes,
    pal_gateway_system,
)
from repro.accel import synthesize_pal_baseband
from repro.core import gamma, sharing_load, throughput_satisfied


# ------------------------------------------------------------ CordicKernel
def test_cordic_kernel_modes():
    with pytest.raises(KernelError):
        CordicKernel("bogus")
    mix = CordicKernel("mix", 0.1)
    fm = CordicKernel("fm")
    assert mix.get_state()["mode"] == "mix"
    assert fm.get_state()["mode"] == "fm"


def test_cordic_kernel_mode_switch_via_state():
    """One physical kernel alternates between mixer and discriminator —
    the configurable-accelerator behaviour the gateways rely on."""
    k = CordicKernel("mix", 0.25)
    out_mix = run_kernel(k, np.ones(4, dtype=complex))
    k.set_state(CordicKernel("fm").get_state())
    s = np.exp(2j * np.pi * 0.05 * np.arange(8))
    out_fm = run_kernel(k, s)
    assert np.iscomplexobj(out_mix)
    assert np.allclose(out_fm[1:], 2 * np.pi * 0.05, atol=1e-3)


def test_cordic_kernel_matches_specialised_kernels():
    from repro.accel import MixerKernel

    s = np.exp(2j * np.pi * 0.03 * np.arange(16)) * (1 + 0.5j)
    assert np.allclose(
        run_kernel(CordicKernel("mix", 0.03), s.copy()),
        run_kernel(MixerKernel(0.03), s.copy()),
    )


def test_cordic_kernel_state_validation():
    k = CordicKernel()
    with pytest.raises(KernelError):
        k.set_state({"mode": "bogus", "freq_over_fs": 0, "phase": 0, "prev_phase": 0})
    with pytest.raises(KernelError):
        k.set_state({"mode": "mix"})


# ------------------------------------------------------------------ config
def test_config_eta_must_match_decimation():
    with pytest.raises(ValueError):
        PalDecoderConfig(eta_stage1=60)  # not a multiple of 8
    with pytest.raises(ValueError):
        PalDecoderConfig(eta_stage2=9)


def test_config_stage_states_shapes():
    cfg = PalDecoderConfig()
    s1 = cfg.stage1_states(cfg.plan.carrier1)
    s2 = cfg.stage2_states()
    assert s1[0]["mode"] == "mix"
    assert s2[0]["mode"] == "fm"
    assert len(s1[1]["coefficients"]) == 33


# -------------------------------------------------------------- functional
def test_decode_functional_recovers_tones():
    plan = PalChannelPlan()
    cfg = PalDecoderConfig(plan=plan)
    left, right = make_test_tones(96, audio_rate=plan.audio_rate,
                                  f_left=440, f_right=1000)
    bb = synthesize_pal_baseband(left, right, plan)
    l_rec, r_rec = decode_functional(bb, cfg)
    assert len(l_rec) == 96
    from repro.accel import correlation

    skip = 8
    assert correlation(l_rec[skip:], left[skip : skip + len(l_rec) - skip]) > 0.9
    assert correlation(r_rec[skip:], right[skip : skip + len(r_rec) - skip]) > 0.9


def test_decode_functional_stereo_separation():
    """The L tone must not leak strongly into R and vice versa."""
    from repro.accel import tone_snr

    plan = PalChannelPlan()
    cfg = PalDecoderConfig(plan=plan)
    left, right = make_test_tones(192, audio_rate=plan.audio_rate,
                                  f_left=440, f_right=1000)
    bb = synthesize_pal_baseband(left, right, plan)
    l_rec, r_rec = decode_functional(bb, cfg)
    assert tone_snr(l_rec[16:], 440, plan.audio_rate) > 6
    assert tone_snr(r_rec[16:], 1000, plan.audio_rate) > 6


# ---------------------------------------------------------- analysis bridge
def test_pal_gateway_system_structure():
    sys_ = pal_gateway_system()
    assert len(sys_.streams) == 4
    assert len(sys_.accelerators) == 2
    assert sys_.c0 == 15
    # stage-1 streams demand 8x the stage-2 rate
    assert sys_.stream("ch1.s1").throughput == 8 * sys_.stream("ch1.s2").throughput


def test_pal_load_is_near_saturation():
    """The prototype runs its gateway at ~95% load (paper Section VI-A)."""
    load = sharing_load(pal_gateway_system())
    assert 0.94 < float(load) < 0.96


def test_pal_block_sizes_match_paper_shape():
    sizes = pal_block_sizes()
    s1, s2 = sizes["ch1.s1"], sizes["ch1.s2"]
    # symmetric channels
    assert sizes["ch2.s1"] == s1 and sizes["ch2.s2"] == s2
    # the 8:1 structure (paper: 10136 vs 1267, exactly 8:1)
    assert s1 == pytest.approx(8 * s2, rel=0.01)
    # magnitudes within a few percent of the published values
    assert s1 == pytest.approx(PAPER_BLOCK_SIZES["stage1"], rel=0.05)
    assert s2 == pytest.approx(PAPER_BLOCK_SIZES["stage2"], rel=0.05)


def test_pal_block_sizes_satisfy_eq5():
    sys_ = pal_gateway_system()
    sizes = pal_block_sizes()
    assigned = sys_.with_block_sizes(sizes)
    assert throughput_satisfied(assigned)


def test_pal_round_fits_realtime_budget():
    """γ must fit within the audio time the blocks carry (44.1 kS/s)."""
    sys_ = pal_gateway_system()
    assigned = sys_.with_block_sizes(pal_block_sizes())
    s2 = assigned.stream("ch1.s2")
    # one rotation delivers η_s2 stage-2 input samples = η_s2/8 audio samples
    budget_cycles = Fraction(s2.block_size or 0, 8 * 44_100) * 100_000_000
    assert gamma(assigned, "ch1.s2") <= budget_cycles


def test_pal_paper_exact_block_sizes_with_margin():
    """A 0.127% rate margin reproduces the paper's EXACT 10136/1267 —
    the unstated calibration constant of the prototype (see EXPERIMENTS.md)."""
    sizes = pal_block_sizes(rate_margin=Fraction(100127, 100000))
    assert sizes["ch1.s1"] == PAPER_BLOCK_SIZES["stage1"] == 10136
    assert sizes["ch1.s2"] == PAPER_BLOCK_SIZES["stage2"] == 1267
