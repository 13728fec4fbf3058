"""Per-stream runtime metrics derived from gateway simulation state.

This is the measurement half of the observability layer: it turns the raw
counters and timestamp lists accumulated by the architecture components
(:class:`~repro.arch.gateway.StreamBinding`, :class:`~repro.arch.cfifo.CFifo`,
:class:`~repro.arch.gateway.EntryGateway`) into the quantities the paper's
analysis bounds: observed block processing time (vs. Eq. 2), round-robin
wait (vs. Eq. 3), block turnaround (vs. Eq. 4) and achieved throughput
(vs. Eq. 5).  Every one is per block, so a derivation costs O(blocks) and
never reads the trace.  :mod:`repro.core.conformance` compares these
observations against the closed-form bounds.

Everything here is duck-typed on the architecture objects (``sim`` must not
import ``arch``): a *binding* needs ``name``, ``eta``, ``samples_in``,
``samples_out``, ``blocks_done``, ``admissions``, ``completions``,
``first_output_at``, ``last_output_at`` and (optionally) ``in_fifo`` /
``out_fifo`` objects exposing ``high_water``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

__all__ = [
    "StreamMetrics",
    "GatewayUtilization",
    "block_quantities",
    "stream_metrics",
    "gateway_utilization",
    "fastpath_summary",
    "metrics_table",
]


@dataclass(frozen=True)
class StreamMetrics:
    """Observed per-stream quantities from one simulation run.

    All times are in cycles.  ``block_times[i]`` is the i-th block's
    admission-to-completion duration (the observed counterpart of ``τ̂``);
    ``waits[i]`` is the gap between the completion of block ``i`` and the
    admission of block ``i+1`` (observed counterpart of ``ε̂``).  A wait
    counts from the previous block's completion, so it measures queueing
    behind other streams only when the stream's input is backlogged (a
    stream short of input words waits longer, and no bound covers that);
    the simulation harness preloads every input, so its waits are
    queueing.  ``turnarounds[i]`` is the completion-to-completion gap
    (observed counterpart of ``γ``).  ``throughput`` is input samples per
    cycle over the steady-state span between the first and last completion
    (observed counterpart of Eq. 5's ``η/γ`` guarantee); it is ``None``
    until two blocks have completed.
    """

    name: str
    eta: int
    blocks_done: int
    samples_in: int
    samples_out: int
    block_times: tuple[int, ...]
    waits: tuple[int, ...]
    turnarounds: tuple[int, ...]
    throughput: Fraction | None
    first_output_at: int | None
    last_output_at: int | None
    in_high_water: int | None
    out_high_water: int | None

    # -- recovery quantities (all zero/False on a fault-free run) --------
    retries: int = 0
    watchdog_timeouts: int = 0
    recovery_cycles: int = 0
    recovery_latencies: tuple[int, ...] = ()
    degraded_cycles: int = 0
    failed: bool = False

    # -- convenience aggregates -----------------------------------------
    @property
    def worst_block_time(self) -> int | None:
        return max(self.block_times) if self.block_times else None

    @property
    def worst_wait(self) -> int | None:
        return max(self.waits) if self.waits else None

    @property
    def worst_turnaround(self) -> int | None:
        return max(self.turnarounds) if self.turnarounds else None

    @property
    def mean_block_time(self) -> float | None:
        if not self.block_times:
            return None
        return sum(self.block_times) / len(self.block_times)

    @property
    def recovered(self) -> bool:
        """The stream hit a watchdog timeout but completed its run anyway."""
        return self.watchdog_timeouts > 0 and not self.failed

    @property
    def worst_recovery_latency(self) -> int | None:
        return max(self.recovery_latencies) if self.recovery_latencies else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (Fractions become floats).

        Recovery quantities appear under a ``"recovery"`` key only when
        something actually happened, keeping fault-free output identical
        to the pre-recovery format.
        """
        out = self._base_dict()
        if self.retries or self.watchdog_timeouts or self.degraded_cycles or self.failed:
            out["recovery"] = {
                "retries": self.retries,
                "watchdog_timeouts": self.watchdog_timeouts,
                "recovery_cycles": self.recovery_cycles,
                "recovery_latencies": list(self.recovery_latencies),
                "worst_recovery_latency": self.worst_recovery_latency,
                "degraded_cycles": self.degraded_cycles,
                "failed": self.failed,
                "recovered": self.recovered,
            }
        return out

    def _base_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "eta": self.eta,
            "blocks_done": self.blocks_done,
            "samples_in": self.samples_in,
            "samples_out": self.samples_out,
            "worst_block_time": self.worst_block_time,
            "mean_block_time": self.mean_block_time,
            "worst_wait": self.worst_wait,
            "worst_turnaround": self.worst_turnaround,
            "throughput": float(self.throughput) if self.throughput is not None else None,
            "first_output_at": self.first_output_at,
            "last_output_at": self.last_output_at,
            "in_high_water": self.in_high_water,
            "out_high_water": self.out_high_water,
        }


@dataclass(frozen=True)
class GatewayUtilization:
    """Entry-gateway cycle breakdown over a simulation horizon.

    ``other`` is whatever the horizon is not accounted for by copying,
    reconfiguring or polling: chiefly time blocked on the pipeline-idle
    signal while the accelerators drain a block.
    """

    horizon: int
    copy_cycles: int
    reconfig_cycles: int
    poll_cycles: int
    blocks_admitted: int

    @property
    def copy(self) -> float:
        return self.copy_cycles / self.horizon

    @property
    def reconfig(self) -> float:
        return self.reconfig_cycles / self.horizon

    @property
    def poll(self) -> float:
        return self.poll_cycles / self.horizon

    @property
    def other(self) -> float:
        return max(0.0, 1.0 - self.copy - self.reconfig - self.poll)

    def to_dict(self) -> dict[str, Any]:
        return {
            "horizon": self.horizon,
            "blocks_admitted": self.blocks_admitted,
            "copy": self.copy,
            "reconfig": self.reconfig,
            "poll": self.poll,
            "other": self.other,
        }


def block_quantities(
    eta: int, admissions: Sequence[int], completions: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], Fraction | None]:
    """Block times, waits, turnarounds and throughput of one stream.

    ``admissions[i]`` and ``completions[i]`` are block ``i``'s admission
    and completion times; an admission past the last completion is a block
    still in flight and yields nothing.  See :class:`StreamMetrics` for
    what each quantity observes.
    """
    n = len(completions)
    block_times = tuple(c - a for a, c in zip(admissions, completions))
    waits = tuple(a - c for c, a in zip(completions, admissions[1:]))
    turnarounds = tuple(c2 - c1 for c1, c2 in zip(completions, completions[1:]))
    throughput: Fraction | None = None
    if n >= 2 and completions[-1] > completions[0]:
        throughput = Fraction(eta * (n - 1), completions[-1] - completions[0])
    return block_times, waits, turnarounds, throughput


def stream_metrics(binding: Any) -> StreamMetrics:
    """Derive :class:`StreamMetrics` from one stream binding's counters."""
    block_times, waits, turnarounds, throughput = block_quantities(
        binding.eta, list(binding.admissions), list(binding.completions)
    )
    return StreamMetrics(
        name=binding.name,
        eta=binding.eta,
        blocks_done=binding.blocks_done,
        samples_in=binding.samples_in,
        samples_out=binding.samples_out,
        block_times=block_times,
        waits=waits,
        turnarounds=turnarounds,
        throughput=throughput,
        first_output_at=binding.first_output_at,
        last_output_at=binding.last_output_at,
        in_high_water=getattr(getattr(binding, "in_fifo", None), "high_water", None),
        out_high_water=getattr(getattr(binding, "out_fifo", None), "high_water", None),
        retries=getattr(binding, "retries", 0),
        watchdog_timeouts=getattr(binding, "watchdog_timeouts", 0),
        recovery_cycles=getattr(binding, "recovery_cycles", 0),
        recovery_latencies=tuple(getattr(binding, "recovery_latencies", ())),
        degraded_cycles=getattr(binding, "degraded_cycles", 0),
        failed=getattr(binding, "failed", False),
    )


def gateway_utilization(entry: Any, horizon: int) -> GatewayUtilization:
    """Cycle breakdown of an entry gateway over ``horizon`` cycles."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return GatewayUtilization(
        horizon=horizon,
        copy_cycles=entry.copy_cycles,
        reconfig_cycles=entry.reconfig_cycles,
        poll_cycles=entry.wait_cycles,
        blocks_admitted=entry.blocks_admitted,
    )


def fastpath_summary(ring: Any) -> dict[str, Any]:
    """Fused-data-path take rates for one ring and its registered clients.

    ``ring`` is duck-typed (``sim`` must not import ``arch``): it needs
    ``fastpath``, a ``fastpath_stats()`` method, and a ``clients`` list of
    components each exposing ``name`` and ``fastpath_stats()`` (C-FIFOs and
    NI channels register themselves at construction).  The aggregate
    ``take_rate`` is the fused fraction of all flits the ring carried;
    eligibility regressions show up here first, so the summary is embedded
    in every ``metrics`` report the sweep artifacts record.
    """
    rings = ring.fastpath_stats()
    fast = sum(r["fast"] for r in rings.values())
    slow = sum(r["slow"] for r in rings.values())
    total = fast + slow
    return {
        "enabled": bool(ring.fastpath),
        "take_rate": (fast / total) if total else 0.0,
        "rings": rings,
        "clients": {c.name: c.fastpath_stats() for c in ring.clients},
    }


def metrics_table(metrics: Iterable[StreamMetrics]) -> str:
    """Fixed-width table of per-stream metrics for terminal output."""
    header = (
        f"{'stream':<12} {'η':>6} {'blocks':>6} {'τ max':>8} {'ε max':>8} "
        f"{'γ max':>8} {'thru (smp/cyc)':>15} {'in hw':>6} {'out hw':>6}"
    )
    lines = [header, "-" * len(header)]
    for m in metrics:
        thru = f"{float(m.throughput):.6f}" if m.throughput is not None else "-"
        lines.append(
            f"{m.name:<12} {m.eta:>6} {m.blocks_done:>6} "
            f"{m.worst_block_time if m.worst_block_time is not None else '-':>8} "
            f"{m.worst_wait if m.worst_wait is not None else '-':>8} "
            f"{m.worst_turnaround if m.worst_turnaround is not None else '-':>8} "
            f"{thru:>15} "
            f"{m.in_high_water if m.in_high_water is not None else '-':>6} "
            f"{m.out_high_water if m.out_high_water is not None else '-':>6}"
        )
    return "\n".join(lines)
