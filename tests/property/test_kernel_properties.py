"""Property-based tests for the accelerator kernels.

Invariants the gateway protocol depends on:

* **state round-trip**: splitting a stream at ANY point and moving the
  state through get_state/set_state (what a context switch does) yields
  bit-identical output to an uninterrupted run — this is what makes
  multiplexing transparent,
* **determinism**: same input, same state ⇒ same output (required by the
  refinement theory, Section III),
* batch references match streaming kernels,
* CORDIC accuracy bounds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    CordicKernel,
    FirDecimatorKernel,
    MixerKernel,
    cordic_rotate,
    cordic_vector,
    design_lowpass,
    fir_decimate_batch,
    run_kernel,
)

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
angle = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi, allow_nan=False)
freq = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@st.composite
def complex_signal(draw, max_len=48):
    n = draw(st.integers(min_value=2, max_value=max_len))
    reals = draw(st.lists(finite, min_size=n, max_size=n))
    imags = draw(st.lists(finite, min_size=n, max_size=n))
    return np.array([complex(a, b) for a, b in zip(reals, imags)])


@st.composite
def kernel_instance(draw):
    kind = draw(st.sampled_from(["mixer", "cordic-mix", "cordic-fm", "fir"]))
    if kind == "mixer":
        return MixerKernel(draw(freq))
    if kind == "cordic-mix":
        return CordicKernel("mix", draw(freq))
    if kind == "cordic-fm":
        return CordicKernel("fm")
    taps = draw(st.integers(min_value=3, max_value=17))
    factor = draw(st.integers(min_value=1, max_value=4))
    return FirDecimatorKernel(design_lowpass(taps, 0.2), factor)


@given(kernel_instance(), complex_signal(), st.data())
@settings(max_examples=60, deadline=None)
def test_state_roundtrip_at_any_split(kernel, signal, data):
    """Context switch anywhere mid-stream is invisible in the output."""
    split = data.draw(st.integers(min_value=0, max_value=len(signal)))
    k2 = type(kernel)(**getattr(kernel, "_init_kwargs", {}))

    ref = run_kernel(kernel, signal)

    head = run_kernel(k2, signal[:split])
    parked = k2.get_state()
    k3 = type(kernel)(**getattr(kernel, "_init_kwargs", {}))
    k3.set_state(parked)
    tail = run_kernel(k3, signal[split:])
    resumed = np.concatenate([head, tail]) if len(head) or len(tail) else np.array([])
    assert len(resumed) == len(ref)
    if len(ref):
        assert np.allclose(resumed, ref)


@given(kernel_instance(), complex_signal())
@settings(max_examples=40, deadline=None)
def test_determinism(kernel, signal):
    k2 = type(kernel)(**getattr(kernel, "_init_kwargs", {}))
    k2.set_state(kernel.get_state())
    out1 = run_kernel(kernel, signal)
    out2 = run_kernel(k2, signal)
    assert np.array_equal(out1, out2)


@given(angle, finite, finite)
@settings(max_examples=80, deadline=None)
def test_cordic_rotate_accuracy(theta, x, y):
    rx, ry = cordic_rotate(x, y, theta)
    ex = x * math.cos(theta) - y * math.sin(theta)
    ey = x * math.sin(theta) + y * math.cos(theta)
    scale = max(1.0, math.hypot(x, y))
    assert abs(rx - ex) < 2e-3 * scale
    assert abs(ry - ey) < 2e-3 * scale


@given(finite, finite)
@settings(max_examples=80, deadline=None)
def test_cordic_vector_accuracy(x, y):
    if math.hypot(x, y) < 1e-3:
        return  # phase undefined near the origin
    mag, phase = cordic_vector(x, y)
    assert abs(mag - math.hypot(x, y)) < 2e-3 * max(1.0, math.hypot(x, y))
    err = abs(phase - math.atan2(y, x))
    err = min(err, 2 * math.pi - err)
    assert err < 2e-3


@given(complex_signal(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_fir_stream_equals_batch(signal, factor):
    h = design_lowpass(9, 0.2)
    stream = run_kernel(FirDecimatorKernel(h, factor), signal)
    batch = fir_decimate_batch(signal, h, factor)
    assert len(stream) == len(batch)
    if len(batch):
        assert np.allclose(stream, batch)


@given(complex_signal(), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_decimator_output_count_exact(signal, factor):
    out = run_kernel(FirDecimatorKernel(design_lowpass(5, 0.2), factor), signal)
    assert len(out) == len(signal) // factor


@given(st.lists(angle, min_size=2, max_size=32))
@settings(max_examples=40, deadline=None)
def test_fm_output_always_wrapped(phases):
    s = np.exp(1j * np.cumsum(phases))
    out = run_kernel(CordicKernel("fm"), s)
    assert np.all(out <= math.pi + 1e-9)
    assert np.all(out >= -math.pi - 1e-9)


@given(freq, complex_signal())
@settings(max_examples=40, deadline=None)
def test_mixer_preserves_magnitude(f, signal):
    out = run_kernel(MixerKernel(f), signal)
    assert np.allclose(np.abs(out), np.abs(signal), atol=2e-3 * (1 + np.abs(signal)))
