"""CORDIC arithmetic and the two CORDIC-based accelerators of the PAL app.

The demonstrator (Section VI-A) uses one shared "channel mixer accelerator
containing a CORDIC" (to shift an audio carrier to baseband) and the same
CORDIC block in a second role "to convert the data stream from FM radio to
normal audio" (an FM discriminator).  Both are built here on an iterative
CORDIC core:

* :func:`cordic_rotate` — rotation mode: rotate ``(x, y)`` by an angle,
* :func:`cordic_vector` — vectoring mode: magnitude + phase of ``(x, y)``,
* :class:`MixerKernel` — NCO + complex rotation (down-conversion),
* :class:`CordicKernel` — the shared accelerator: a mixer (``"mix"``) or an
  FM discriminator (``"fm"``: phase extraction + differentiation), as its
  context selects.

The kernels follow the :class:`~repro.accel.base.StreamKernel` contract so
they can be mounted on simulated accelerator tiles and context-switched by
the gateways.  Batch (NumPy) equivalents are provided for the fast
functional path; the tests assert batch/streaming equivalence.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - numpy is imported where it computes
    import numpy as np

from .base import KernelError, StreamKernel

__all__ = [
    "CORDIC_ITERATIONS",
    "cordic_gain",
    "cordic_rotate",
    "cordic_vector",
    "MixerKernel",
    "CordicKernel",
    "mix_batch",
    "fm_demod_batch",
]

CORDIC_ITERATIONS = 16
_ANGLES = [math.atan(2.0 ** -i) for i in range(CORDIC_ITERATIONS)]


def cordic_gain(iterations: int = CORDIC_ITERATIONS) -> float:
    """Aggregate CORDIC magnitude gain ``K = Π √(1 + 2^-2i)``."""
    g = 1.0
    for i in range(iterations):
        g *= math.sqrt(1.0 + 2.0 ** (-2 * i))
    return g


#: ``cordic_gain(n)`` for every iteration count the angle table supports
_GAINS = [cordic_gain(n) for n in range(CORDIC_ITERATIONS + 1)]


def _gain(iterations: int) -> float:
    """The precomputed gain of an ``iterations``-step CORDIC."""
    if not 0 <= iterations <= CORDIC_ITERATIONS:
        raise ValueError(
            f"CORDIC iterations must be between 0 and CORDIC_ITERATIONS="
            f"{CORDIC_ITERATIONS} (the angle table's length), got {iterations}"
        )
    return _GAINS[iterations]


def _quantize(v: float, fractional_bits: int | None) -> float:
    """Round to a fixed-point grid of 2^-bits (None = double precision).

    Models the hardware datapath: the FPGA CORDIC uses fixed-point
    arithmetic, so intermediate x/y/z values live on this grid.
    """
    if fractional_bits is None:
        return v
    scale = float(1 << fractional_bits)
    return math.floor(v * scale + 0.5) / scale


def cordic_rotate(
    x: float,
    y: float,
    angle: float,
    iterations: int = CORDIC_ITERATIONS,
    fractional_bits: int | None = None,
):
    """Rotate vector ``(x, y)`` by ``angle`` radians (rotation mode).

    Handles the full circle by pre-rotating ±π/2 quadrants, then runs the
    shift-add iteration and compensates the gain.  Accuracy is ~2^-iterations.
    """
    k = _gain(iterations)
    # reduce angle into [-pi, pi)
    angle = (angle + math.pi) % (2 * math.pi) - math.pi
    # pre-rotate into the CORDIC convergence range [-pi/2, pi/2]
    if angle > math.pi / 2:
        x, y = -y, x
        angle -= math.pi / 2
    elif angle < -math.pi / 2:
        x, y = y, -x
        angle += math.pi / 2
    z = angle
    for i in range(iterations):
        d = 1.0 if z >= 0 else -1.0
        x, y = x - d * y * 2.0 ** -i, y + d * x * 2.0 ** -i
        if fractional_bits is not None:
            x, y = _quantize(x, fractional_bits), _quantize(y, fractional_bits)
        z -= d * _ANGLES[i]
    return _quantize(x / k, fractional_bits), _quantize(y / k, fractional_bits)


def cordic_vector(
    x: float,
    y: float,
    iterations: int = CORDIC_ITERATIONS,
    fractional_bits: int | None = None,
):
    """Magnitude and phase of ``(x, y)`` (vectoring mode).

    Returns ``(magnitude, phase)`` with phase in ``(-π, π]``.
    """
    k = _gain(iterations)
    # pre-rotate left half-plane into the convergence range
    phase_offset = 0.0
    if x < 0:
        if y >= 0:
            x, y = y, -x
            phase_offset = math.pi / 2
        else:
            x, y = -y, x
            phase_offset = -math.pi / 2
    z = 0.0
    for i in range(iterations):
        d = -1.0 if y >= 0 else 1.0
        x, y = x - d * y * 2.0 ** -i, y + d * x * 2.0 ** -i
        if fractional_bits is not None:
            x, y = _quantize(x, fractional_bits), _quantize(y, fractional_bits)
            z = _quantize(z, fractional_bits)
        z -= d * _ANGLES[i]
    return _quantize(x / k, fractional_bits), _quantize(z + phase_offset, fractional_bits)


class MixerKernel(StreamKernel):
    """NCO + CORDIC rotator: multiply the stream by ``e^{-j·2π·f/fs·n}``.

    Configuration: the normalised mixing frequency ``freq/fs`` (turns per
    sample).  State: the phase accumulator.  Both are part of the context
    that the gateway saves/restores on a stream switch.
    """

    rho = 1

    def __init__(self, freq_over_fs: float = 0.0) -> None:
        if not -0.5 <= freq_over_fs <= 0.5:
            raise KernelError(f"normalised frequency out of range: {freq_over_fs}")
        self.freq_over_fs = float(freq_over_fs)
        self.phase = 0.0
        self._init_kwargs = {"freq_over_fs": freq_over_fs}

    def process(self, sample: complex | float) -> list:
        s = complex(sample)
        angle = -2.0 * math.pi * self.phase
        x, y = cordic_rotate(s.real, s.imag, angle)
        self.phase = (self.phase + self.freq_over_fs) % 1.0
        return [complex(x, y)]

    def get_state(self) -> dict[str, Any]:
        return {"freq_over_fs": self.freq_over_fs, "phase": self.phase}

    def set_state(self, state: dict[str, Any]) -> None:
        try:
            self.freq_over_fs = float(state["freq_over_fs"])
            self.phase = float(state["phase"])
        except KeyError as err:
            raise KernelError(f"bad mixer state: missing {err}") from err


class CordicKernel(StreamKernel):
    """The *configurable* CORDIC accelerator of the demonstrator.

    The paper's system contains **one** CORDIC accelerator that serves both
    roles of Fig. 10 — channel mixing (rotation mode) and FM demodulation
    (vectoring mode) — depending on the configuration loaded by the
    entry-gateway for the current stream.  This class is what actually sits
    on the shared accelerator tile; ``mode`` is part of the saved/restored
    context, so the same silicon alternates between a mixer for the
    stage-1 streams and a discriminator for the stage-2 streams.
    """

    rho = 1
    MODES = ("mix", "fm")

    def __init__(
        self,
        mode: str = "mix",
        freq_over_fs: float = 0.0,
        fractional_bits: int | None = None,
    ) -> None:
        if mode not in self.MODES:
            raise KernelError(f"unknown CORDIC mode {mode!r}; choose from {self.MODES}")
        if not -0.5 <= freq_over_fs <= 0.5:
            raise KernelError(f"normalised frequency out of range: {freq_over_fs}")
        if fractional_bits is not None and not 1 <= fractional_bits <= 52:
            raise KernelError(f"fractional_bits out of range: {fractional_bits}")
        self.mode = mode
        self.freq_over_fs = float(freq_over_fs)
        self.fractional_bits = fractional_bits
        self.phase = 0.0        # NCO accumulator (mix mode)
        self.prev_phase = 0.0   # previous sample phase (fm mode)
        self._init_kwargs = {
            "mode": mode,
            "freq_over_fs": freq_over_fs,
            "fractional_bits": fractional_bits,
        }

    def process(self, sample: complex | float) -> list:
        s = complex(sample)
        if self.mode == "mix":
            x, y = cordic_rotate(
                s.real, s.imag, -2.0 * math.pi * self.phase,
                fractional_bits=self.fractional_bits,
            )
            self.phase = (self.phase + self.freq_over_fs) % 1.0
            return [complex(x, y)]
        _mag, phase = cordic_vector(
            s.real, s.imag, fractional_bits=self.fractional_bits
        )
        delta = (phase - self.prev_phase + math.pi) % (2.0 * math.pi) - math.pi
        self.prev_phase = phase
        return [delta]

    def get_state(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "freq_over_fs": self.freq_over_fs,
            "phase": self.phase,
            "prev_phase": self.prev_phase,
            "fractional_bits": self.fractional_bits,
        }

    def set_state(self, state: dict[str, Any]) -> None:
        try:
            mode = state["mode"]
            if mode not in self.MODES:
                raise KernelError(f"unknown CORDIC mode {mode!r}")
            self.mode = mode
            self.freq_over_fs = float(state["freq_over_fs"])
            self.phase = float(state["phase"])
            self.prev_phase = float(state["prev_phase"])
            self.fractional_bits = state.get("fractional_bits", self.fractional_bits)
        except KeyError as err:
            raise KernelError(f"bad CORDIC state: missing {err}") from err


# ------------------------------------------------------- batch equivalents
def mix_batch(samples: np.ndarray, freq_over_fs: float, phase0: float = 0.0) -> np.ndarray:
    """Vectorised ideal mixer (reference for :class:`MixerKernel`)."""
    import numpy as np

    n = np.arange(len(samples))
    lo = np.exp(-2j * np.pi * (phase0 + freq_over_fs * n))
    return np.asarray(samples, dtype=complex) * lo


def fm_demod_batch(samples: np.ndarray, prev_phase: float = 0.0) -> np.ndarray:
    """Vectorised ideal FM discriminator (reference for ``CordicKernel("fm")``)."""
    import numpy as np

    phases = np.angle(np.asarray(samples, dtype=complex))
    all_phases = np.concatenate(([prev_phase], phases))
    delta = np.diff(all_phases)
    return (delta + np.pi) % (2.0 * np.pi) - np.pi
