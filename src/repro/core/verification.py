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
from .csdf_builder import build_stream_csdf, measure_block_time
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


def _csdf_refines_sdf(system: GatewaySystem, stream_name: str, blocks: int = 3) -> bool:
    """Check token-production refinement CSDF ⊑ SDF for the first blocks.

    Both models run with a fully pre-queued producer and a free consumer so
    that the shared chain is the only constraint; the CSDF exit-gateway's
    sample-by-sample production times are compared against the SDF actor's
    atomic end-of-firing times, token by token, over exactly ``blocks``
    blocks: a run that stops short of them fails the check.  Tokens past
    them (a zero-delay chain can start the next block before the iteration
    stop) lie outside the compared window.
    """
    s = system.stream(stream_name)
    eta = s.block_size or 1
    fast = Fraction(1, 1000)  # producer/consumer far faster than the chain

    csdf, info = build_stream_csdf(
        system, stream_name,
        producer_period=fast, consumer_period=fast,
        alpha0=blocks * eta + eta, alpha3=blocks * eta + eta,
        prequeued=blocks * eta + eta,
    )
    sdf = build_stream_sdf(
        system, stream_name,
        producer_period=fast, consumer_period=fast,
        alpha0=blocks * eta + eta, alpha3=blocks * eta + eta,
    )
    # record only the two actors compared below
    fine = execute(csdf, iterations=blocks, record=(info.exit,))
    coarse = execute(sdf, iterations=blocks, record=("vS",))

    tokens = fine.production_ticks(info.exit)  # one per vG1 firing
    productions = coarse.production_ticks("vS")[:blocks]
    if len(productions) < blocks or len(tokens) < blocks * eta:
        return False  # a refinement short of the window fails
    # vS produces each block atomically: every token of block b comes no
    # later than its production, compared exactly across the two tick scales
    return all(max(tokens[b * eta:(b + 1) * eta]) * coarse.scale <= end * fine.scale
               for b, end in enumerate(productions))


def verify_stream(system: GatewaySystem, stream_name: str,
                  blocks: int = 2) -> StreamVerification:
    """Run the verification battery for one stream of a sized system."""
    s = system.stream(stream_name)
    eq5 = throughput_satisfied(system, s.name)
    sdf_ok, sdf_rate = verify_with_sdf_model(system, s.name)

    # conservativeness of τ̂: measure the CSDF model with a pre-queued
    # block and maximum interference folded into phase 0
    csdf, info = build_stream_csdf(
        system, s.name,
        producer_period=Fraction(1, 1000), consumer_period=Fraction(1, 1000),
        alpha0=2 * (s.block_size or 1), alpha3=2 * (s.block_size or 1),
        prequeued=2 * (s.block_size or 1),
    )
    taus = measure_block_time(csdf, info, blocks=blocks)
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
        refinement_ok=_csdf_refines_sdf(system, s.name),
    )


def verify_system(system: GatewaySystem, blocks: int = 2) -> VerificationReport:
    """Run the full verification battery over every stream."""
    system.require_block_sizes()
    return VerificationReport(
        [verify_stream(system, s.name, blocks) for s in system.streams]
    )
