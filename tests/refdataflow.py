"""Frozen reference self-timed (C)SDF engine: the executable specification.

A verbatim copy of the engine that ``repro.dataflow.simulation`` and the
``steady_state_throughput`` loop of ``repro.dataflow.statespace`` ran before
the integer-tick, dirty-set rewrite (DESIGN.md §11).  It is never imported
by ``src/``; the differential tests and ``bench_dataflow_engine`` run it next
to the production engine and require identical results.  Only the imports
differ from the original: ``Firing``, ``DeadlockError``, ``GraphError`` and
``ThroughputResult`` come from the package, so records, exceptions and
throughput results compare across the two engines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from repro.dataflow.graph import CSDFGraph, GraphError
from repro.dataflow.repetition import firing_repetition_vector
from repro.dataflow.simulation import DeadlockError, Firing
from repro.dataflow.statespace import ThroughputResult

__all__ = ["ExecutionResult", "SelfTimedEngine", "execute", "steady_state_throughput"]

_MICRO_GUARD = 1_000_000


@dataclass
class ExecutionResult:
    """Outcome of a self-timed execution run."""

    firings: list[Firing]
    completions: dict[str, int]
    end_time: float
    deadlocked: bool
    iterations_completed: int
    tokens: dict[str, int] = field(default_factory=dict)

    def firings_of(self, actor: str) -> list[Firing]:
        """Completed firings of one actor, ordered by start time."""
        return [f for f in self.firings if f.actor == actor]

    def production_times(self, actor: str) -> list[float]:
        """End times of an actor's firings — token production instants."""
        return [f.end for f in self.firings if f.actor == actor]


class SelfTimedEngine:
    """Stepwise self-timed executor; one instance per run.

    The public entry point for plain runs is :func:`execute`; the state-space
    analyses drive the engine directly through :meth:`advance` and
    :meth:`state_key`.
    """

    def __init__(self, graph: CSDFGraph, record: bool = True) -> None:
        self.graph = graph
        self.record = record
        self._actor_order = sorted(graph.actors)
        self._edge_order = sorted(graph.edges)
        self.tokens: dict[str, int] = {e: graph.edge(e).tokens for e in self._edge_order}
        self.phase: dict[str, int] = {a: 0 for a in self._actor_order}
        self.busy: dict[str, tuple[float, int] | None] = {a: None for a in self._actor_order}
        self.completions: dict[str, int] = {a: 0 for a in self._actor_order}
        # int start so exact (int/Fraction) durations stay exact; floats
        # contaminate locally only when an actor actually uses them
        self.now: float = 0
        self.firings: list[Firing] = []
        self._heap: list[tuple[float, str]] = []
        self._in = {a: graph.in_edges(a) for a in self._actor_order}
        self._out = {a: graph.out_edges(a) for a in self._actor_order}
        self._start_enabled()

    # -- core mechanics ---------------------------------------------------
    def _is_enabled(self, actor: str) -> bool:
        if self.busy[actor] is not None:
            return False
        p = self.phase[actor]
        return all(self.tokens[e.name] >= e.consumption[p] for e in self._in[actor])

    def _begin_firing(self, actor: str) -> None:
        p = self.phase[actor]
        spec = self.graph.actor(actor)
        for e in self._in[actor]:
            self.tokens[e.name] -= e.consumption[p]
        end = self.now + spec.duration[p]
        self.busy[actor] = (end, p)
        heapq.heappush(self._heap, (end, actor))

    def _complete_firing(self, actor: str) -> None:
        end, p = self.busy[actor]  # type: ignore[misc]
        for e in self._out[actor]:
            self.tokens[e.name] += e.production[p]
        self.busy[actor] = None
        self.phase[actor] = (p + 1) % self.graph.actor(actor).phases
        self.completions[actor] += 1
        if self.record:
            self.firings.append(Firing(actor, p, end - self.graph.actor(actor).duration[p], end))

    def _start_enabled(self) -> None:
        """Start every enabled actor; resolve zero-duration firings in place."""
        guard = 0
        progress = True
        while progress:
            progress = False
            for actor in self._actor_order:
                while self._is_enabled(actor):
                    guard += 1
                    if guard > _MICRO_GUARD:
                        raise GraphError(
                            f"zero-delay livelock at t={self.now} in graph {self.graph.name!r}"
                        )
                    self._begin_firing(actor)
                    end, _p = self.busy[actor]  # type: ignore[misc]
                    if end == self.now:
                        # zero-duration firing completes instantly
                        self._remove_from_heap(actor)
                        self._complete_firing(actor)
                        progress = True
                    else:
                        break

    def _remove_from_heap(self, actor: str) -> None:
        # Rare path (zero-duration firings only); rebuild without the entry.
        for i, (t, a) in enumerate(self._heap):
            if a == actor and t == self.now:
                self._heap[i] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                return
        raise AssertionError("zero-duration firing missing from heap")

    def advance(self) -> bool:
        """Advance to the next completion instant.

        Completes **all** firings ending at that instant, then starts newly
        enabled actors.  Returns False when nothing is in flight (the graph
        is deadlocked or has simply run dry).
        """
        if not self._heap:
            return False
        t = self._heap[0][0]
        self.now = t
        while self._heap and self._heap[0][0] == t:
            _t, actor = heapq.heappop(self._heap)
            self._complete_firing(actor)
        self._start_enabled()
        return True

    @property
    def idle(self) -> bool:
        """True when no firing is in flight."""
        return not self._heap

    def state_key(self) -> tuple:
        """Canonical state for recurrence detection (time-shift invariant)."""
        remaining = tuple(
            round(self.busy[a][0] - self.now, 9) if self.busy[a] is not None else -1.0
            for a in self._actor_order
        )
        phases = tuple(self.phase[a] for a in self._actor_order)
        toks = tuple(self.tokens[e] for e in self._edge_order)
        busy_phase = tuple(
            self.busy[a][1] if self.busy[a] is not None else -1 for a in self._actor_order
        )
        return (toks, phases, remaining, busy_phase)


def execute(
    graph: CSDFGraph,
    iterations: int | None = None,
    horizon: float | None = None,
    record: bool = True,
    allow_deadlock: bool = True,
) -> ExecutionResult:
    """Run a self-timed execution.

    Parameters
    ----------
    graph:
        The (C)SDF graph; bounded buffers must already be modelled as
        back-edges.
    iterations:
        Stop once this many complete graph iterations have finished (every
        actor ``a`` completed ``iterations * reps[a]`` firings).
    horizon:
        Stop when simulated time passes this value.
    record:
        Keep the full firing list (needed for schedules/refinement checks).
    allow_deadlock:
        When False, a deadlock raises :class:`DeadlockError` instead of
        returning a result flagged ``deadlocked``.
    """
    if iterations is None and horizon is None:
        raise GraphError("execute() needs an iteration count or a time horizon")
    reps = firing_repetition_vector(graph) if iterations is not None else {}
    engine = SelfTimedEngine(graph, record=record)

    def iterations_done() -> int:
        return min(
            (engine.completions[a] // reps[a] for a in reps if reps[a] > 0),
            default=0,
        )

    deadlocked = False
    while True:
        if iterations is not None and iterations_done() >= iterations:
            break
        if horizon is not None and engine.now >= horizon:
            break
        if not engine.advance():
            # nothing in flight: if iteration target not reached, deadlock
            if iterations is not None and iterations_done() < iterations:
                deadlocked = True
            break

    if deadlocked and not allow_deadlock:
        raise DeadlockError(
            f"graph {graph.name!r} deadlocked at t={engine.now} "
            f"after {iterations_done() if iterations is not None else '?'} iterations"
        )
    return ExecutionResult(
        firings=engine.firings,
        completions=dict(engine.completions),
        end_time=engine.now,
        deadlocked=deadlocked,
        iterations_completed=iterations_done() if iterations is not None else 0,
        tokens=dict(engine.tokens),
    )


def steady_state_throughput(
    graph: CSDFGraph,
    actor: str | None = None,
    max_steps: int = 1_000_000,
) -> ThroughputResult:
    """Exact throughput of the self-timed execution of ``graph``.

    The graph must be bounded (every cycle of interest closed by back-edges);
    otherwise token counts grow without recurrence and the exploration aborts
    with :class:`GraphError` after ``max_steps`` events.

    Durations are handled exactly when they are integers or Fractions; floats
    are rounded to 9 decimals inside the state key.
    """
    reps = firing_repetition_vector(graph)
    if actor is None:
        actor = sorted(graph.actors)[0]
    elif actor not in graph.actors:
        raise GraphError(f"unknown reference actor {actor!r}")

    engine = SelfTimedEngine(graph, record=False)
    seen: dict[tuple, tuple[float, int, int]] = {}
    steps = 0
    seen[engine.state_key()] = (engine.now, engine.completions[actor], steps)

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
            raw = engine.now - t0
            if isinstance(raw, float):
                period = Fraction(raw).limit_denominator(10**9)
            else:
                period = Fraction(raw)  # int/Fraction: exact
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
        seen[key] = (engine.now, engine.completions[actor], steps)

    raise GraphError(
        f"no steady state within {max_steps} events for graph {graph.name!r}; "
        "is every cycle bounded by back-edges?"
    )
