"""The complete design flow of the paper, as one call.

Section V prescribes the methodology: check feasibility, compute minimum
block sizes with the ILP (Algorithm 1), then "after finding the smallest
block sizes, a standard algorithm for the computation of the minimum
buffer capacities can be used", and finally verify the throughput
constraints on the dataflow models.  :func:`run_design_flow` executes all
of it and returns a single report; optionally it also runs the
buffer-optimal branch-and-bound around the ILP point (Section V-F's
closing remark) and reports whether it found a cheaper memory solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..dataflow import GraphError
from .blocksize_bnb import optimal_block_sizes_for_buffers, stream_buffer_cost
from .blocksize_ilp import compute_block_sizes, sharing_load
from .params import GatewaySystem, ParameterError
from .timing import gamma, sample_latency_bound, tau_hat
from .utilization import UtilizationReport, analyze_utilization
from .verification import VerificationReport, verify_system

__all__ = ["DesignReport", "run_design_flow"]


@dataclass
class DesignReport:
    """Everything the paper's flow produces for one gateway system."""

    system: GatewaySystem                 # with block sizes assigned
    load: Fraction
    block_sizes: dict[str, int]
    buffer_capacities: dict[str, dict[str, int]]  # stream -> {edge: cap}
    verification: VerificationReport
    utilization: UtilizationReport
    bounds: dict[str, dict[str, int | float]]     # stream -> τ̂ / γ̂ / L̂
    buffer_optimal: dict[str, int] | None = None  # B&B block sizes, if run
    buffer_optimal_total: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verification.ok

    @property
    def total_buffer(self) -> int:
        return sum(sum(c.values()) for c in self.buffer_capacities.values())

    def summary(self) -> str:
        lines = [f"design flow report — load {float(self.load):.3f}"]
        for name, eta in self.block_sizes.items():
            b = self.bounds[name]
            caps = self.buffer_capacities.get(name, {})
            lines.append(
                f"  {name:<10} η={eta:<7} τ̂={b['tau']:<8} γ̂={b['gamma']:<8} "
                f"L̂={b['latency']:<10.0f} buffers={sum(caps.values())}"
            )
        lines.append(f"  total buffer capacity: {self.total_buffer} tokens")
        if self.buffer_optimal is not None:
            lines.append(
                f"  buffer-optimal B&B: η={self.buffer_optimal} "
                f"(total {self.buffer_optimal_total} tokens)"
            )
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(self.verification.summary())
        return "\n".join(lines)


def run_design_flow(
    system: GatewaySystem,
    size_buffers: bool = True,
    buffer_bnb_radius: int = 0,
    cap_limit: int = 512,
) -> DesignReport:
    """Execute the paper's complete design methodology.

    Parameters
    ----------
    size_buffers:
        Run the per-stream minimum-buffer computation on the Fig. 7 models
        (skippable: it is the slow step for large η).
    buffer_bnb_radius:
        When > 0, additionally search block sizes within ``±radius`` of the
        ILP point for a smaller total buffer (Section V-F's branch-and-
        bound).  0 disables it.
    """
    load = sharing_load(system)
    if load >= 1:
        raise ParameterError(
            f"infeasible: aggregate load c0·Σμ = {float(load):.4f} ≥ 1"
        )
    notes: list[str] = []
    ilp = compute_block_sizes(system)
    assigned = system.with_block_sizes(ilp.block_sizes)

    bounds = {
        s.name: {
            "tau": tau_hat(assigned, s.name),
            "gamma": gamma(assigned, s.name),
            "latency": float(sample_latency_bound(assigned, s.name)),
        }
        for s in assigned.streams
    }

    buffers: dict[str, dict[str, int]] = {}
    if size_buffers:
        for s in assigned.streams:
            try:
                buffers[s.name] = stream_buffer_cost(
                    assigned, s.name, cap_limit=max(cap_limit, 3 * (s.block_size or 1))
                )
            except GraphError as err:
                notes.append(f"buffer sizing skipped for {s.name}: {err}")

    buffer_optimal = None
    buffer_optimal_total = None
    if buffer_bnb_radius > 0:
        ranges = {
            name: range(max(1, eta), eta + buffer_bnb_radius + 1)
            for name, eta in ilp.block_sizes.items()
        }
        try:
            res = optimal_block_sizes_for_buffers(assigned, ranges, cap_limit=cap_limit)
            buffer_optimal = res.block_sizes
            buffer_optimal_total = res.total_buffer
        except ParameterError as err:
            notes.append(f"buffer-optimal search found nothing: {err}")

    verification = verify_system(assigned)
    utilization = analyze_utilization(assigned)
    return DesignReport(
        system=assigned,
        load=load,
        block_sizes=ilp.block_sizes,
        buffer_capacities=buffers,
        verification=verification,
        utilization=utilization,
        bounds=bounds,
        buffer_optimal=buffer_optimal,
        buffer_optimal_total=buffer_optimal_total,
        notes=notes,
    )
