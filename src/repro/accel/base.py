"""Stream-kernel interface implemented by every accelerator function.

The paper's accelerators are "coarsely programmable" stream processors: they
consume an incoming data stream and produce an outgoing one, can stall on
full/empty FIFOs, and expose their **state and configuration** over a bus so
the entry-gateway can context-switch them between multiplexed streams
(Section IV-B).  This module fixes the Python contract:

* ``process(sample) -> list``: consume one sample, produce zero or more
  output samples (decimators produce less than one per input),
* ``get_state()`` / ``set_state()``: a picklable snapshot whose size (in
  words) determines the reconfiguration cost over the configuration bus,
* ``rho``: the paper's firing duration in cycles per sample (1 for both
  prototype accelerators).

Kernels must be *functionally deterministic* — a requirement of the
refinement theory the temporal analysis rests on (Section III).
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - numpy is imported where it computes
    import numpy as np

__all__ = ["StreamKernel", "KernelError", "run_kernel"]


class KernelError(RuntimeError):
    """Raised on kernel misuse (bad configuration, bad state snapshot)."""


class StreamKernel(ABC):
    """A stateful one-in/zero-or-more-out stream processing function."""

    #: firing duration in cycles per input sample (paper: 1 for both kernels)
    rho: int = 1

    @abstractmethod
    def process(self, sample: complex | float) -> list:
        """Consume one sample; return produced output samples (maybe none)."""

    @abstractmethod
    def get_state(self) -> dict[str, Any]:
        """Snapshot of all mutable state + configuration."""

    @abstractmethod
    def set_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`get_state`."""

    def reset(self) -> None:
        """Return to the initial state (default: restore a fresh snapshot)."""
        self.set_state(type(self)(**getattr(self, "_init_kwargs", {})).get_state())

    @property
    def state_words(self) -> int:
        """State size in bus words — the cost of one save or restore."""
        return _count_words(self.get_state())

    @property
    def output_ratio(self) -> Fraction:
        """Average output samples per input sample (1/factor for decimators).

        The gateways use this to know how many output samples a block of
        ``η_s`` inputs produces (the exit-gateway must count them to detect
        that the pipeline drained).
        """
        return Fraction(1)


def _count_words(obj: Any) -> int:
    if isinstance(obj, dict):
        return sum(_count_words(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_count_words(v) for v in obj)
    # an array cannot exist before numpy is imported: don't import it here
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return int(obj.size) * (2 if np.iscomplexobj(obj) else 1)
    if isinstance(obj, complex):
        return 2
    return 1


def run_kernel(kernel: StreamKernel, samples: Iterable) -> np.ndarray:
    """Feed a whole sequence through a kernel; convenience for tests/examples."""
    import numpy as np

    out: list = []
    for s in samples:
        out.extend(kernel.process(s))
    return np.asarray(out)
