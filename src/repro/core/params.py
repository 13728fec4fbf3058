"""Parameter objects describing a gateway-managed accelerator chain.

These are the inputs of the paper's analysis (Section V):

* a :class:`StreamSpec` per multiplexed stream ``s ∈ S``: its minimum
  throughput ``μ_s`` (samples per clock cycle), its reconfiguration time
  ``R_s`` (cycles) and — once computed — its block size ``η_s``,
* an :class:`AcceleratorSpec` per accelerator in the shared chain: firing
  duration ``ρ_A`` (cycles per sample),
* a :class:`GatewaySystem` tying them together with the entry-gateway copy
  time ``ε`` and exit-gateway copy time ``δ`` (cycles per sample).

The paper's Virtex-6 prototype instantiates ``ε = 15``, ``ρ_A = δ = 1`` and
``R_s = 4100`` for every stream (Section VI-A); helpers expose those defaults
for the evaluation scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = ["StreamSpec", "AcceleratorSpec", "GatewaySystem", "ParameterError"]


class ParameterError(ValueError):
    """Raised for physically meaningless parameters."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**12)


@dataclass(frozen=True)
class StreamSpec:
    """One data stream multiplexed over the shared accelerator chain.

    Parameters
    ----------
    name:
        Stream identifier.
    throughput:
        Required minimum throughput ``μ_s`` in **samples per clock cycle**
        (use :meth:`from_rate` for samples/second + clock).
    reconfigure:
        Reconfiguration time ``R_s`` in cycles (state save + restore for a
        context switch to this stream).
    block_size:
        Block size ``η_s`` in samples; ``None`` until computed.
    """

    name: str
    throughput: Fraction
    reconfigure: int
    block_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "throughput", _frac(self.throughput))
        if self.throughput <= 0:
            raise ParameterError(f"stream {self.name!r}: throughput must be positive")
        if self.reconfigure < 0:
            raise ParameterError(f"stream {self.name!r}: negative reconfiguration time")
        if self.block_size is not None and self.block_size < 1:
            raise ParameterError(f"stream {self.name!r}: block size must be >= 1")

    @classmethod
    def from_rate(
        cls,
        name: str,
        samples_per_second: float | int | Fraction,
        clock_hz: float | int | Fraction,
        reconfigure: int,
        block_size: int | None = None,
    ) -> "StreamSpec":
        """Build a spec from a rate in samples/s and a clock frequency."""
        mu = _frac(samples_per_second) / _frac(clock_hz)
        return cls(name, mu, reconfigure, block_size)

    def with_block_size(self, eta: int) -> "StreamSpec":
        """Copy with the block size fixed."""
        return replace(self, block_size=int(eta))


@dataclass(frozen=True)
class AcceleratorSpec:
    """One accelerator in the shared chain: ``rho`` cycles per sample."""

    name: str
    rho: int

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ParameterError(f"accelerator {self.name!r}: negative firing duration")


@dataclass(frozen=True)
class GatewaySystem:
    """An entry/exit-gateway pair sharing a chain of accelerators.

    Parameters
    ----------
    accelerators:
        The shared chain, in dataflow order.
    streams:
        All streams ``S`` multiplexed over the chain (round-robin order).
    entry_copy:
        ``ε`` — entry-gateway cycles per sample (15 in the prototype).
    exit_copy:
        ``δ`` — exit-gateway cycles per sample (1 in the prototype).
    ni_capacity:
        Capacity of the network-interface FIFOs between the gateways and the
        accelerators (``α1 = α2 = 2`` tokens in the paper's CSDF model).
    """

    accelerators: tuple[AcceleratorSpec, ...]
    streams: tuple[StreamSpec, ...]
    entry_copy: int = 15
    exit_copy: int = 1
    ni_capacity: int = 2

    def __post_init__(self) -> None:
        if not self.accelerators:
            raise ParameterError("a gateway system needs at least one accelerator")
        if not self.streams:
            raise ParameterError("a gateway system needs at least one stream")
        if self.entry_copy < 0 or self.exit_copy < 0:
            raise ParameterError("copy times must be non-negative")
        if self.ni_capacity < 1:
            raise ParameterError("NI FIFOs need capacity >= 1")
        names = [s.name for s in self.streams]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate stream names")
        if self.c0 == 0 and all(s.reconfigure == 0 for s in self.streams):
            raise ParameterError(
                "a round-robin rotation takes 0 cycles (ε, δ, every ρ and every "
                "R_s are 0), so γ̂ is 0 and no throughput bound exists")
        object.__setattr__(self, "accelerators", tuple(self.accelerators))
        object.__setattr__(self, "streams", tuple(self.streams))

    # -- derived quantities --------------------------------------------------
    @property
    def c0(self) -> int:
        """``max(ε, ρ_A, δ)`` — the per-sample bottleneck stage (Eq. 2)."""
        return max(self.entry_copy, self.exit_copy, *(a.rho for a in self.accelerators))

    @property
    def flush_stages(self) -> int:
        """Pipeline-flush term of Eq. 2.

        With one shared accelerator the paper's bound is ``(η_s + 2)·c0``:
        the "+2" empties the accelerator and the exit-gateway.  For a chain
        of ``A`` accelerators the pipeline is deeper and the flush term
        generalises to ``A + 1``.
        """
        return len(self.accelerators) + 1

    def stream(self, name: str) -> StreamSpec:
        for s in self.streams:
            if s.name == name:
                return s
        raise ParameterError(f"unknown stream {name!r}")

    def with_block_sizes(self, sizes: dict[str, int]) -> "GatewaySystem":
        """Copy with block sizes assigned to (a subset of) the streams."""
        unknown = set(sizes) - {s.name for s in self.streams}
        if unknown:
            raise ParameterError(f"unknown streams: {sorted(unknown)}")
        streams = tuple(
            s.with_block_size(sizes[s.name]) if s.name in sizes else s for s in self.streams
        )
        return replace(self, streams=streams)

    def require_block_sizes(self) -> None:
        missing = [s.name for s in self.streams if s.block_size is None]
        if missing:
            raise ParameterError(f"streams without block sizes: {missing}")
