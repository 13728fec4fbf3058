"""Stream-processing accelerator kernels (CORDIC, FIR+down-sampler) and the
synthetic PAL front-end replacing the paper's RF hardware.

The modules the simulator uses (``base``, ``cordic``, ``cipher``) import
numpy only inside the functions that compute with it.  ``audio``, ``fir``
and ``frontend`` serve numpy callers alone; their names are imported on
first access (PEP 562), so ``import repro.accel`` loads no numpy.
"""

from importlib import import_module

from .base import KernelError, StreamKernel, run_kernel
from .cipher import (
    KeyMixKernel,
    PermuteBlockKernel,
    SBoxKernel,
    block_permutation,
    invert_table,
    product_decrypt,
    product_encrypt,
    sbox_table,
)
from .cordic import (
    CORDIC_ITERATIONS,
    CordicKernel,
    MixerKernel,
    cordic_gain,
    cordic_rotate,
    cordic_vector,
    fm_demod_batch,
    mix_batch,
)

#: name -> submodule, for the numpy-backed names imported on first use
_LAZY = {
    **dict.fromkeys(("correlation", "normalize_fm_output", "reconstruct_stereo",
                     "tone_frequency", "tone_snr"), "audio"),
    **dict.fromkeys(("PAPER_TAPS", "FirDecimatorKernel", "design_lowpass",
                     "fir_decimate_batch"), "fir"),
    **dict.fromkeys(("PalChannelPlan", "make_test_tones", "synthesize_pal_baseband"),
                    "frontend"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CORDIC_ITERATIONS",
    "CordicKernel",
    "FirDecimatorKernel",
    "KernelError",
    "KeyMixKernel",
    "MixerKernel",
    "PAPER_TAPS",
    "PalChannelPlan",
    "PermuteBlockKernel",
    "SBoxKernel",
    "StreamKernel",
    "block_permutation",
    "cordic_gain",
    "cordic_rotate",
    "cordic_vector",
    "correlation",
    "design_lowpass",
    "fir_decimate_batch",
    "fm_demod_batch",
    "invert_table",
    "make_test_tones",
    "mix_batch",
    "normalize_fm_output",
    "product_decrypt",
    "product_encrypt",
    "sbox_table",
    "reconstruct_stereo",
    "run_kernel",
    "synthesize_pal_baseband",
    "tone_frequency",
    "tone_snr",
]
