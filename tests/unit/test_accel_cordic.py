"""Unit tests for the CORDIC core, the mixer kernel and the shared CORDIC
kernel's FM-discriminator mode."""

import math

import numpy as np
import pytest

from repro.accel import (
    CORDIC_ITERATIONS,
    CordicKernel,
    KernelError,
    MixerKernel,
    cordic_gain,
    cordic_rotate,
    cordic_vector,
    fm_demod_batch,
    mix_batch,
    run_kernel,
)

TOL = 1e-3  # 16 CORDIC iterations give ~2^-16 angular resolution


def test_cordic_gain_value():
    # the classical K ≈ 1.6468
    assert cordic_gain() == pytest.approx(1.6468, abs=1e-3)


@pytest.mark.parametrize("iterations", [CORDIC_ITERATIONS + 1, -1])
def test_iterations_outside_angle_table_rejected(iterations):
    limit = f"CORDIC_ITERATIONS={CORDIC_ITERATIONS}"
    with pytest.raises(ValueError, match=limit):
        cordic_rotate(1.0, 0.0, 0.5, iterations=iterations)
    with pytest.raises(ValueError, match=limit):
        cordic_vector(3.0, 4.0, iterations=iterations)


@pytest.mark.parametrize(
    "angle", [0.0, 0.5, -0.5, math.pi / 2, -math.pi / 2, 2.5, -2.5, 3.1, -3.1]
)
def test_rotate_matches_trig(angle):
    x, y = cordic_rotate(1.0, 0.0, angle)
    assert x == pytest.approx(math.cos(angle), abs=TOL)
    assert y == pytest.approx(math.sin(angle), abs=TOL)


def test_rotate_preserves_magnitude():
    x, y = cordic_rotate(3.0, 4.0, 1.234)
    assert math.hypot(x, y) == pytest.approx(5.0, abs=TOL)


@pytest.mark.parametrize(
    "x,y",
    [(3.0, 4.0), (1.0, 0.0), (0.0, 1.0), (-3.0, 4.0), (-3.0, -4.0), (3.0, -4.0), (0.0, -1.0)],
)
def test_vector_matches_atan2(x, y):
    mag, phase = cordic_vector(x, y)
    assert mag == pytest.approx(math.hypot(x, y), abs=TOL)
    assert phase == pytest.approx(math.atan2(y, x), abs=TOL)


def test_rotate_then_vector_roundtrip():
    for angle in np.linspace(-3.0, 3.0, 13):
        x, y = cordic_rotate(2.0, 0.0, float(angle))
        _, phase = cordic_vector(x, y)
        assert phase == pytest.approx(float(angle), abs=2 * TOL)


# ---------------------------------------------------------------- MixerKernel
def test_mixer_matches_batch_reference():
    mix = MixerKernel(0.07)
    s = np.exp(2j * np.pi * 0.07 * np.arange(64)) * (1 + 0.3j)
    stream = run_kernel(mix, s)
    batch = mix_batch(s, 0.07)
    assert np.max(np.abs(stream - batch)) < 1e-3


def test_mixer_shifts_tone_to_dc():
    f = 0.125
    mix = MixerKernel(f)
    s = np.exp(2j * np.pi * f * np.arange(128))
    out = run_kernel(mix, s)
    # after mixing the tone sits at DC: nearly constant
    assert np.std(np.angle(out[1:] / out[:-1])) < 1e-3


def test_mixer_rejects_out_of_range_frequency():
    with pytest.raises(KernelError):
        MixerKernel(0.75)


def test_mixer_state_roundtrip():
    m1 = MixerKernel(0.1)
    s = np.exp(2j * np.pi * 0.1 * np.arange(10))
    run_kernel(m1, s[:5])
    state = m1.get_state()
    m2 = MixerKernel(0.0)
    m2.set_state(state)
    out1 = run_kernel(m1, s[5:])
    out2 = run_kernel(m2, s[5:])
    assert np.allclose(out1, out2)


def test_mixer_state_missing_key_rejected():
    with pytest.raises(KernelError):
        MixerKernel(0.1).set_state({"phase": 0.0})


def test_mixer_rho_is_one_cycle_per_sample():
    assert MixerKernel(0.1).rho == 1


# ---------------------------------------------------- CordicKernel("fm")
def test_fm_demod_constant_offset_frequency():
    # pure tone at frequency f: phase step 2*pi*f per sample
    f = 0.05
    s = np.exp(2j * np.pi * f * np.arange(64))
    out = run_kernel(CordicKernel("fm"), s)
    assert np.allclose(out[1:], 2 * np.pi * f, atol=1e-3)


def test_fm_demod_matches_batch_reference():
    rng = np.random.default_rng(3)
    phase = np.cumsum(rng.uniform(-0.5, 0.5, 100))
    s = np.exp(1j * phase)
    stream = run_kernel(CordicKernel("fm"), s)
    batch = fm_demod_batch(s)
    assert np.max(np.abs(stream - batch)) < 1e-3


def test_fm_demod_recovers_modulating_tone():
    fs, dev = 32000.0, 1000.0
    t = np.arange(2048) / fs
    audio = 0.7 * np.sin(2 * np.pi * 400 * t)
    sig = np.exp(1j * 2 * np.pi * np.cumsum(dev * audio) / fs)
    out = run_kernel(CordicKernel("fm"), sig)
    rec = out / (2 * np.pi * dev / fs)
    # ignore the first transient sample
    assert np.corrcoef(rec[1:], audio[1:])[0, 1] > 0.999


def test_fm_demod_state_roundtrip():
    s = np.exp(1j * np.linspace(0, 6, 20))
    k1 = CordicKernel("fm")
    run_kernel(k1, s[:10])
    k2 = CordicKernel("fm")
    k2.set_state(k1.get_state())
    assert np.allclose(run_kernel(k1, s[10:]), run_kernel(k2, s[10:]))


def test_fm_demod_output_wrapped():
    # a phase jump of ~2π-ε must not appear as a huge frequency
    s = [1.0, np.exp(1j * 3.0), np.exp(-1j * 3.0)]
    out = run_kernel(CordicKernel("fm"), np.array(s))
    assert all(-np.pi <= v <= np.pi for v in out)


def test_state_words_reported():
    assert MixerKernel(0.1).state_words == 2
