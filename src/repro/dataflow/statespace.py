"""Exact steady-state throughput via state-space exploration.

Self-timed execution of a consistent, deadlock-free, *bounded* (C)SDF graph
reaches a periodic regime after a finite transient (Ghamarian et al.,
"Throughput analysis of synchronous data flow graphs").  This module runs the
self-timed engine, captures a canonical state after every event instant and
detects recurrence; the throughput is the number of firings of a reference
actor per time unit inside the detected period.

This method is exact (unlike simulation-for-a-while estimates) and — unlike
MCM analysis on an HSDF expansion — applies directly to CSDF graphs and to
graphs whose HSDF expansion would blow up.  The paper's Fig. 8 buffer
experiment requires exactly this machinery: minimum buffer capacities under a
*maximum throughput* requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import CSDFGraph, GraphError
from .repetition import firing_repetition_vector
from .simulation import SelfTimedEngine

__all__ = ["ThroughputResult", "steady_state_throughput"]


@dataclass(frozen=True)
class ThroughputResult:
    """Steady-state throughput of a self-timed execution.

    ``firing_rate`` is the number of firings of ``actor`` per time unit;
    ``iteration_rate`` normalises by the repetition vector (graph iterations
    per time unit).  ``deadlocked`` executions have zero rates.
    """

    actor: str
    firing_rate: Fraction
    iteration_rate: Fraction
    period: Fraction
    firings_per_period: int
    transient_steps: int
    deadlocked: bool

    @property
    def period_per_iteration(self) -> Fraction:
        """Average time for one graph iteration (inf when deadlocked)."""
        if self.iteration_rate == 0:
            raise ZeroDivisionError("deadlocked graph has no iteration period")
        return 1 / self.iteration_rate


def steady_state_throughput(
    graph: CSDFGraph,
    actor: str | None = None,
    max_steps: int = 1_000_000,
) -> ThroughputResult:
    """Exact throughput of the self-timed execution of ``graph``.

    The graph must be bounded (every cycle of interest closed by back-edges);
    otherwise token counts grow without recurrence and the exploration aborts
    with :class:`GraphError` after ``max_steps`` events.

    Graphs whose durations are all integers or Fractions are analysed
    exactly: states are keyed on exact remaining ticks and the period is an
    exact Fraction.  With any float duration, remaining times are rounded to
    9 decimals inside the state key and the period is recovered with
    ``limit_denominator(10**9)``.
    """
    reps = firing_repetition_vector(graph)
    if actor is None:
        actor = sorted(graph.actors)[0]
    elif actor not in graph.actors:
        raise GraphError(f"unknown reference actor {actor!r}")

    engine = SelfTimedEngine(graph, record=False)
    seen: dict[tuple, tuple[float, int, int]] = {}
    steps = 0
    seen[engine.state_key()] = (engine.clock, engine.completions[actor], steps)

    while steps < max_steps:
        if not engine.advance():
            return ThroughputResult(
                actor=actor,
                firing_rate=Fraction(0),
                iteration_rate=Fraction(0),
                period=Fraction(0),
                firings_per_period=0,
                transient_steps=steps,
                deadlocked=True,
            )
        steps += 1
        key = engine.state_key()
        if key in seen:
            t0, c0, s0 = seen[key]
            raw = engine.clock - t0
            if isinstance(raw, float):
                period = Fraction(raw).limit_denominator(10**9)
            else:
                period = Fraction(raw, engine.scale)  # ticks: exact
            count = engine.completions[actor] - c0
            if period == 0:
                raise GraphError("zero-time period detected; graph has zero-duration cycles")
            if count == 0:
                # The recurring state never fires the reference actor: the
                # reference is outside the live part of the graph.
                return ThroughputResult(
                    actor=actor,
                    firing_rate=Fraction(0),
                    iteration_rate=Fraction(0),
                    period=period,
                    firings_per_period=0,
                    transient_steps=s0,
                    deadlocked=False,
                )
            rate = Fraction(count) / period
            return ThroughputResult(
                actor=actor,
                firing_rate=rate,
                iteration_rate=rate / reps[actor],
                period=period,
                firings_per_period=count,
                transient_steps=s0,
                deadlocked=False,
            )
        seen[key] = (engine.clock, engine.completions[actor], steps)

    raise GraphError(
        f"no steady state within {max_steps} events for graph {graph.name!r}; "
        "is every cycle bounded by back-edges?"
    )
