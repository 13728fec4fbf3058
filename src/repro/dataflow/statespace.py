"""Exact steady-state throughput via state-space exploration.

Self-timed execution of a consistent, deadlock-free, *bounded* (C)SDF graph
reaches a periodic regime after a finite transient (Ghamarian et al.,
"Throughput analysis of synchronous data flow graphs").  This module runs the
self-timed engine, keys its canonical state after event instants and
detects recurrence; the throughput is the number of firings of a reference
actor per time unit inside the detected period.

The engine jumps the periods its execution repeats (DESIGN.md §11,
"Periodic jumps"), so the loop keeps a state only where the engine stands,
after a stepped instant or where a jump lands: a replayed state is the
state at the same place in the jumped interval, moved along by the jump's
drift, and is computed when asked for.  The first recurrence is then
located exactly, wherever it lies.

This method is exact (unlike simulation-for-a-while estimates) and — unlike
MCM analysis on an HSDF expansion — applies directly to CSDF graphs and to
graphs whose HSDF expansion would blow up.  The paper's Fig. 8 buffer
experiment requires exactly this machinery: minimum buffer capacities under a
*maximum throughput* requirement.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
    ``transient_steps`` is the number of completion instants before the
    first state that recurs, or, for a deadlocked execution, before the run
    dries up.  Instants a periodic jump replays count like stepped ones, so
    it is the step at which a run stepping one instant at a time meets that
    state.
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


class _Trail:
    """Every state of one run, by step: kept where the engine stood, else computed.

    A step is one completion instant, replayed or not.  The states the
    engine stands in (after an instant it processes, and where a jump
    lands) are kept with their clock and the reference actor's completion
    count.  A jump replays the ``L`` instants after a kept state ``y0`` up
    to the kept state ``yL`` ``m`` times, so the state ``k`` replays into it
    at place ``j`` is ``yj`` moved by ``k·(yL - y0)``: tokens, remaining
    ticks, clock and count by that much, phases modulo their count.
    """

    def __init__(self, engine: SelfTimedEngine, actor: str) -> None:
        self.engine = engine
        self.actor = actor
        graph = engine.graph
        self.sizes = [graph.actor(a).phases for a in sorted(graph.actors)]
        self.steps = 0
        self.at: list[int] = []  # step of each kept state
        self.kept: list[tuple] = []  # (key, clock, count)
        self.seen: dict[tuple, int] = {}  # key -> first kept step
        self.starts: list[int] = []  # per jump: the step of its yL
        self.jumps: list[tuple[int, int, int]] = []  # (L, m, index of yL)

    def keep(self) -> int | None:
        """Keep the engine's state at ``steps``; an earlier kept step with it, or None."""
        engine = self.engine
        key = engine.state_key()
        self.at.append(self.steps)
        self.kept.append((key, engine.clock, engine.completions[self.actor]))
        earlier = self.seen.get(key)
        if earlier is None:
            self.seen[key] = self.steps
        return earlier

    def jumped(self, instants: int, replays: int) -> None:
        """Count the steps a jump from the last kept state replayed."""
        self.starts.append(self.steps)
        self.jumps.append((instants, replays, len(self.kept) - 1))
        self.steps += instants * replays

    def _moved(self, y: int, last: int, instants: int, k: int) -> tuple:
        """Kept state ``y`` moved ``k`` replays along the jump that ends at ``last``."""
        (tokens, phases, rest), clock, count = self.kept[y]
        (tokens0, phases0, rest0), clock0, count0 = self.kept[last - instants]
        (tokens1, phases1, rest1), clock1, count1 = self.kept[last]
        key = (
            tuple(a + k * (b - c) for a, b, c in zip(tokens, tokens1, tokens0)),
            tuple((a + k * (b - c)) % n
                  for a, b, c, n in zip(phases, phases1, phases0, self.sizes)),
            tuple(a + k * (b - c) for a, b, c in zip(rest, rest1, rest0)),
        )
        return key, clock + k * (clock1 - clock0), count + k * (count1 - count0)

    def state(self, step: int) -> tuple:
        """``(key, clock, count)`` at ``step``."""
        i = bisect_right(self.at, step) - 1
        if self.at[i] == step:
            return self.kept[i]
        # inside the replays of the last jump that starts before it
        start = bisect_left(self.starts, step) - 1
        instants, _replays, last = self.jumps[start]
        k, j = divmod(step - self.starts[start] - 1, instants)
        return self._moved(last - instants + j + 1, last, instants, k + 1)

    def replayed(self, key: tuple) -> int | None:
        """A replayed step whose state is ``key``, or None."""
        def counts(state):  # token counts, then remaining ticks
            return state[0] + state[2]

        want = counts(key)
        for start, (instants, replays, last) in zip(self.starts, self.jumps):
            first, final = counts(self.kept[last - instants][0]), counts(self.kept[last][0])
            # a count the jump moves (a drifting edge, or the remaining
            # ticks of an actor busy throughout) gives the replay directly
            moved = next(((c, b - a) for c, (a, b) in enumerate(zip(first, final))
                          if a != b), None)
            for j in range(1, instants + 1):
                y = last - instants + j
                if moved is None:  # only phases move
                    candidates = range(1, replays + 1)
                else:
                    c, d = moved
                    k, off = divmod(want[c] - counts(self.kept[y][0])[c], d)
                    candidates = (k,) if not off and 1 <= k <= replays else ()
                for k in candidates:
                    if self._moved(y, last, instants, k)[0] == key:
                        return start + (k - 1) * instants + j
        return None

    def recurrence(self, earlier: int, later: int) -> tuple[int, int]:
        """The first recurrence ``(s0, period in steps)``, from two equal states.

        Every state from the first recurring one on repeats every period
        steps, and ``later - earlier`` is a multiple of it; a state before
        it recurs never.  So ``state(s) == state(s + later - earlier)``
        first holds at ``s0``, and the period is the least divisor ``d`` of
        ``later - earlier`` with ``state(s0 + d) == state(s0)``.
        """
        span = later - earlier
        lo, hi = 0, earlier
        while lo < hi:
            mid = (lo + hi) // 2
            if self.state(mid)[0] == self.state(mid + span)[0]:
                hi = mid
            else:
                lo = mid + 1
        key = self.state(lo)[0]
        small = [d for d in range(1, isqrt(span) + 1) if span % d == 0]
        divisors = small + [span // d for d in reversed(small)]
        return lo, next(d for d in divisors if self.state(lo + d)[0] == key)


def steady_state_throughput(
    graph: CSDFGraph,
    actor: str | None = None,
    max_steps: int = 1_000_000,
) -> ThroughputResult:
    """Exact throughput of the self-timed execution of ``graph``.

    The graph must be bounded (every cycle of interest closed by back-edges);
    otherwise token counts grow without recurrence and the exploration aborts
    with :class:`GraphError` after ``max_steps`` instants processed one by
    one.  Instants that a periodic jump replays cost no work and do not
    count against ``max_steps``; they are steps all the same, and the result
    (``transient_steps`` included) is the one a run stepping every instant
    returns.  The first recurrence may lie inside replayed instants, with
    the state it repeats before or inside them: the loop keeps only the
    states the engine stands in, finds any two equal states and from them
    locates the first recurrence (:meth:`_Trail.recurrence`).  A run that
    has processed ``max_steps`` instants stops once it has also compared its
    state with every replayed one.

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
    trail = _Trail(engine, actor)
    trail.keep()
    instants = 0
    for jump in engine.walk():
        if jump is None:
            instants += 1
            trail.steps += 1
        else:
            trail.jumped(*jump)
        earlier = trail.keep()
        if earlier is None and jump is None and instants >= max_steps:
            earlier = trail.replayed(trail.kept[-1][0])
            if earlier is None:
                raise GraphError(
                    f"no steady state within {max_steps} events for graph "
                    f"{graph.name!r}; is every cycle bounded by back-edges?"
                )
        if earlier is not None:
            break
    else:
        return ThroughputResult(
            actor=actor,
            firing_rate=Fraction(0),
            iteration_rate=Fraction(0),
            period=Fraction(0),
            firings_per_period=0,
            transient_steps=trail.steps,
            deadlocked=True,
        )

    s0, span = trail.recurrence(earlier, trail.steps)
    _key, t0, c0 = trail.state(s0)
    _key, t1, c1 = trail.state(s0 + span)
    raw = t1 - t0
    if isinstance(raw, float):
        period = Fraction(raw).limit_denominator(10**9)
    else:
        period = Fraction(raw, engine.scale)  # ticks: exact
    count = c1 - c0
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
