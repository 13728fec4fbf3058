"""End-to-end verification of a block-size assignment.

Combines the closed-form bounds (Eq. 2–5), the CSDF model (Fig. 5), the SDF
abstraction (Fig. 7) and the refinement theory into one report:

1. Eq. 5 holds for every stream (closed form);
2. the SDF model's state-space throughput confirms Eq. 5 (dataflow check);
3. the CSDF model's *measured* block time never exceeds τ̂ (the bound is
   conservative);
4. the CSDF model refines the SDF abstraction: every output token is
   produced no later than the abstraction predicts.

Item 3+4 are the executable version of the paper's refinement chain
``hardware ⊑ CSDF ⊑ SDF``; the hardware end of the chain is exercised by the
architecture simulator tests in ``tests/integration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..dataflow import execute
from .csdf_builder import build_stream_csdf
from .params import GatewaySystem
from .sdf_abstraction import build_stream_sdf, verify_with_sdf_model
from .timing import guaranteed_throughput, tau_hat, throughput_satisfied

__all__ = ["StreamVerification", "VerificationReport", "verify_stream", "verify_system"]


@dataclass(frozen=True)
class StreamVerification:
    """Per-stream verification outcome."""

    stream: str
    eta: int
    mu: Fraction
    guaranteed: Fraction
    eq5_ok: bool
    sdf_rate: Fraction
    sdf_ok: bool
    tau_bound: int
    tau_measured: int | Fraction
    tau_ok: bool
    refinement_ok: bool

    @property
    def ok(self) -> bool:
        return self.eq5_ok and self.sdf_ok and self.tau_ok and self.refinement_ok


@dataclass
class VerificationReport:
    """Aggregate over all streams of a gateway system."""

    streams: list[StreamVerification] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.streams)

    def summary(self) -> str:
        lines = ["stream       η      μ[s/cyc]   η/γ[s/cyc]  eq5  sdf  τ≤τ̂  ⊑sdf"]
        for s in self.streams:
            lines.append(
                f"{s.stream:<10} {s.eta:>6}  {float(s.mu):>9.6f}  "
                f"{float(s.guaranteed):>9.6f}  {'ok' if s.eq5_ok else 'NO':>3}  "
                f"{'ok' if s.sdf_ok else 'NO':>3}  {'ok' if s.tau_ok else 'NO':>3}  "
                f"{'ok' if s.refinement_ok else 'NO':>4}"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


#: blocks over which the CSDF model must refine the SDF abstraction
REFINED_BLOCKS = 3
#: producer and consumer periods far faster than the chain: in every run
#: below, the shared chain is the only constraint
_FAST = Fraction(1, 1000)


def _csdf_refines_sdf(system: GatewaySystem, stream_name: str, fine, info) -> bool:
    """Check token-production refinement CSDF ⊑ SDF for the first blocks.

    ``fine`` is a run of the stream's CSDF model (:func:`verify_stream`'s)
    that kept ``vG1``'s last phase, against which the SDF model runs with a
    fully pre-queued producer and a free consumer.  Every exit token of a
    block comes no later than the SDF actor's atomic end of that block's
    firing, over exactly :data:`REFINED_BLOCKS` blocks: a run that stops
    short of them fails the check.  ``vG1``'s firings never overlap, so a
    block's last phase ends at its latest exit token, and one record per
    block is compared.  Tokens past them (a zero-delay chain can start the
    next block before the iteration stop) lie outside the compared window.
    """
    blocks, queued = REFINED_BLOCKS, (REFINED_BLOCKS + 1) * info.eta
    sdf = build_stream_sdf(system, stream_name, producer_period=_FAST,
                           consumer_period=_FAST, alpha0=queued, alpha3=queued)
    coarse = execute(sdf, iterations=blocks, record=("vS",))
    exits = fine.production_ticks(info.exit)[:blocks]  # one per block
    productions = coarse.production_ticks("vS")[:blocks]
    if len(productions) < blocks or len(exits) < blocks:
        return False  # a refinement short of the window fails
    # vS produces each block atomically: compared exactly across the two
    # tick scales
    return all(last * coarse.scale <= end * fine.scale
               for last, end in zip(exits, productions))


def verify_stream(system: GatewaySystem, stream_name: str,
                  blocks: int = 2) -> StreamVerification:
    """Run the verification battery for one stream of a sized system.

    The stream's Fig. 5 CSDF model is built and run once, for ``window =
    max(blocks, REFINED_BLOCKS)`` blocks with ``(window + 1)·η`` tokens
    prequeued and as buffers: enough that the producer and consumer never
    hold a block up, so each block's time is that of a block behind a full
    queue.  τ̂ is checked on its first ``blocks`` blocks and the refinement
    on its first :data:`REFINED_BLOCKS`; the run keeps only the two phases
    that bound each block (:attr:`~.csdf_builder.StreamModelInfo.block_phases`).
    """
    s = system.stream(stream_name)
    eq5 = throughput_satisfied(system, s.name)
    sdf_ok, sdf_rate = verify_with_sdf_model(system, s.name)

    # conservativeness of τ̂: measure the CSDF model with a pre-queued
    # block and maximum interference folded into phase 0
    window = max(blocks, REFINED_BLOCKS)
    queued = (window + 1) * (s.block_size or 1)
    csdf, info = build_stream_csdf(
        system, s.name, producer_period=_FAST, consumer_period=_FAST,
        alpha0=queued, alpha3=queued, prequeued=queued,
    )
    run = execute(csdf, iterations=window, record=info.block_phases)
    taus = info.block_times(run)[:blocks]
    measured = max(taus, default=0)
    # τ̂ compares against the block time *without* the other-stream wait
    # (ε̂ is accounted separately in Eq. 3); subtract it from the model.
    from .timing import epsilon_hat

    eps = epsilon_hat(system, s.name) if len(system.streams) > 1 else 0
    bound = tau_hat(system, s.name)
    # a block whose exit never completed has no time: the run must measure all
    tau_ok = len(taus) >= blocks and measured - eps <= bound

    return StreamVerification(
        stream=s.name,
        eta=s.block_size or 0,
        mu=s.throughput,
        guaranteed=guaranteed_throughput(system, s.name),
        eq5_ok=eq5,
        sdf_rate=sdf_rate,
        sdf_ok=sdf_ok,
        tau_bound=bound,
        tau_measured=measured - eps,
        tau_ok=tau_ok,
        refinement_ok=_csdf_refines_sdf(system, s.name, run, info),
    )


def verify_system(system: GatewaySystem, blocks: int = 2) -> VerificationReport:
    """Run the full verification battery over every stream."""
    system.require_block_sizes()
    return VerificationReport(
        [verify_stream(system, s.name, blocks) for s in system.streams]
    )
