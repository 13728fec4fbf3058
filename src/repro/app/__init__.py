"""Applications: the PAL stereo decoder (paper Section VI), the product
cipher chain, and the named-scenario registry fronting both.

The PAL decoder module computes with numpy throughout (FIR kernels, the
functional reference), so its names are imported on first access
(PEP 562) and ``import repro.app`` loads no numpy.
"""

from importlib import import_module

from .analysis_bridge import PAPER_BLOCK_SIZES, pal_block_sizes, pal_gateway_system
from .product_cipher import (
    ProductCipherConfig,
    build_cipher_soc,
    cipher_gateway_system,
    encrypt_functional,
    run_cipher_on_soc,
)
from .scenarios import (
    ScenarioDefinition,
    ScenarioError,
    build_scenario,
    format_ref,
    generate,
    parse_ref,
    register,
)
from .scenarios import describe as describe_scenario
from .scenarios import get as get_scenario
from .scenarios import names as scenario_names

#: the numpy-backed PAL decoder's names, imported on first use
_LAZY = dict.fromkeys(("PalDecoderConfig", "PalSocHandles", "build_pal_soc",
                       "decode_functional", "run_pal_on_soc"), "pal_decoder")


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "PAPER_BLOCK_SIZES",
    "PalDecoderConfig",
    "PalSocHandles",
    "ProductCipherConfig",
    "ScenarioDefinition",
    "ScenarioError",
    "build_cipher_soc",
    "build_pal_soc",
    "build_scenario",
    "cipher_gateway_system",
    "decode_functional",
    "describe_scenario",
    "encrypt_functional",
    "format_ref",
    "generate",
    "get_scenario",
    "pal_block_sizes",
    "pal_gateway_system",
    "parse_ref",
    "register",
    "run_cipher_on_soc",
    "run_pal_on_soc",
    "scenario_names",
]
