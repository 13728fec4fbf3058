"""Self-timed execution of (C)SDF graphs.

In a *self-timed* execution every actor fires as soon as it is enabled
(sufficient tokens on all input edges).  Because every CSDF actor carries an
implicit self-edge with one token (paper, Section V-A), firings of the same
actor never overlap; phases advance cyclically.

Token timing follows the standard (C)SDF semantics the paper relies on:
tokens are **consumed at firing start** and **produced at firing end**
(the firing duration is "the duration between the consumption of input
tokens and the production of output tokens").

The engine is event-driven over a completion heap and supports:

* execution for a fixed number of graph *iterations* or up to a time horizon,
* exact deadlock detection,
* firing records of every actor (used to build Fig. 6-style schedules),
  of named actors only, or of named phases of them,
* state capture hooks used by :mod:`repro.dataflow.statespace` for exact
  steady-state throughput of bounded graphs.

Time is kept in integer *ticks* for exact graphs (DESIGN.md §11): when every
duration is an int or a Fraction, durations are multiplied by
:func:`time_scale` and the run is pure int arithmetic, so ``now == clock /
scale`` exactly.  A graph with any float duration runs the same code with
scale 1 on the durations as given, i.e. in float time.

An exact run (:func:`execute`, and the state-space loop) also jumps over
the periods its execution repeats (DESIGN.md §11, "Periodic jumps"): once
the interval between two instants provably recurs, it is replayed many
times in one arithmetic step, records included, to exactly where stepping
would have arrived.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import ceil, inf, lcm
from typing import Collection, Iterable, Mapping, NamedTuple

from .graph import CSDFGraph, GraphError
from .repetition import firing_repetition_vector

__all__ = [
    "Firing",
    "ExecutionResult",
    "SelfTimedEngine",
    "execute",
    "DeadlockError",
    "time_scale",
]

_MICRO_GUARD = 1_000_000
#: later instants with the mark's wake set that are compared with it (see
#: walk): a period can hold several such instants, as a two-actor ring's
#: does, and a run that never recurs pays this many comparisons per mark
_TRIES = 3


class DeadlockError(RuntimeError):
    """Raised when a deadlock is encountered and the caller forbade it."""


class Firing(NamedTuple):
    """One completed (or ongoing) actor firing."""

    actor: str
    phase: int
    start: float
    end: float


def time_scale(durations: Iterable[int | Fraction]) -> int:
    """Least positive integer that makes every exact duration an integer.

    The LCM of the denominators: multiplying every duration by it maps the
    graph's time onto integer ticks without changing any comparison.
    """
    return lcm(*{d.denominator for d in durations})


class SelfTimedEngine:
    """Stepwise self-timed executor; one instance per run.

    The public entry point for plain runs is :func:`execute`; the state-space
    analysis drives the engine directly through :meth:`walk` and
    :meth:`state_key`, and :meth:`advance` steps one instant without
    jumping.  ``clock`` is the current time in ticks and ``scale``
    the ticks per time unit (1 for float graphs), so ``now`` is
    ``clock / scale``.  ``record`` is as for :func:`execute`.  ``instants``
    counts the completion instants processed one by one, the re-runs of
    :meth:`_probe` included (read-only); the instants a periodic jump
    replays are not among them.

    Each actor's phase table holds one shared entry per distinct (ticks,
    quanta, wake set, record flag): an η-phase gateway's table is η
    references to a few entries, alike phases are the same entry, and the
    next phase is computed, not stored.
    """

    def __init__(self, graph: CSDFGraph,
                 record: bool | Collection[str] | Mapping[str, Collection[int]] = True,
                 ) -> None:
        self.graph = graph
        self._actor_order = sorted(graph.actors)
        self._edge_order = sorted(graph.edges)
        self._index = {a: i for i, a in enumerate(self._actor_order)}
        specs = [graph.actor(a) for a in self._actor_order]
        self._exact = not any(isinstance(d, float) for spec in specs for d in spec.duration)
        self.scale = (time_scale(d for spec in specs for d in spec.duration)
                      if self._exact else 1)

        # per actor, the phases whose firings are kept: ``record`` as a
        # mapping, a name keeping every phase of its actor.  Only a scoped
        # run refuses to answer for the others (see _recorded_index)
        self._scoped = not isinstance(record, bool)
        if not self._scoped:
            record = self._actor_order if record else ()
        if not isinstance(record, Mapping):
            record = {a: range(specs[self._index[a]].phases)
                      for a in record if a in self._index}
        self._kept = [record.get(a, ()) for a in self._actor_order]

        # Per actor, per phase: (ticks, consumed, produced, wake, keep), one
        # shared entry per distinct value.  ``consumed``/``produced`` list
        # (edge, quantum) for nonzero quanta; ``wake`` is the bit set of
        # actors a completion may enable: the actor itself and the consumers
        # of the edges it produces to; ``keep``: is the firing recorded.
        # ``_starts`` lists the phases whose entry differs from the one
        # before, cyclically: the runs of alike phases that a jump may
        # replay (see _span); empty when every phase is alike.
        edge_index = {e: k for k, e in enumerate(self._edge_order)}
        self._phases: list[list[tuple]] = []
        self._starts: list[list[int]] = []
        for i, (name, spec, kept) in enumerate(zip(self._actor_order, specs, self._kept)):
            ins, outs = graph.in_edges(name), graph.out_edges(name)
            in_edges = [edge_index[e.name] for e in ins]
            out_edges = [(edge_index[e.name], 1 << self._index[e.dst]) for e in outs]
            # an η-phase gateway repeats a few patterns: each is built once.
            # A float graph's ticks are its durations, whose type is kept
            entries: dict[tuple, tuple] = {}
            table: list[tuple] = []
            starts: list[int] = []
            columns = zip(
                spec.duration,
                zip(*(e.consumption for e in ins)) if ins else repeat(()),
                zip(*(e.production for e in outs)) if outs else repeat(()),
            )
            for p, (d, consumption, production) in enumerate(columns):
                ticks = int(d * self.scale) if self._exact else d
                key = (ticks, type(ticks), consumption, production, p in kept)
                entry = entries.get(key)
                if entry is None:
                    wake = 1 << i
                    for (_k, bit), q in zip(out_edges, production):
                        if q:
                            wake |= bit
                    entry = entries[key] = (
                        ticks,
                        tuple((k, q) for k, q in zip(in_edges, consumption) if q),
                        tuple((k, q) for (k, _bit), q in zip(out_edges, production) if q),
                        wake,
                        key[-1],
                    )
                if not table or entry is not table[-1]:
                    starts.append(p)
                table.append(entry)
            if table[0] is table[-1]:  # the last run goes on into phase 0
                starts.pop(0)
            self._phases.append(table)
            self._starts.append(starts)

        n = len(self._actor_order)
        self._tokens = [graph.edge(e).tokens for e in self._edge_order]
        self._phase = [0] * n
        self._busy: list = [None] * n  # end tick of the firing in flight
        self._done = [0] * n
        # iteration stop (see execute): completions that finish an actor's
        # quota, and how many actors are still short of theirs (-1: no quota)
        self._target = [0] * n
        self._below = -1
        self._records: list[tuple] = []  # (actor index, phase, end tick)
        self._heap: list[tuple] = []  # (end tick, actor index)
        self._trace: list | None = None  # see _settle and _probe
        self.clock = 0
        self.instants = 0
        self._settle((1 << n) - 1)

    # -- time ---------------------------------------------------------------
    def _time(self, ticks):
        """Ticks as public time: int when whole, else Fraction (or as-is)."""
        if self.scale == 1:
            return ticks
        whole, rest = divmod(ticks, self.scale)
        return Fraction(ticks, self.scale) if rest else whole

    @property
    def now(self):
        """Current simulated time."""
        return self._time(self.clock)

    # -- core mechanics -----------------------------------------------------
    def _complete(self, i: int, end) -> int:
        """Finish actor ``i``'s firing at tick ``end``; return its wake set."""
        p = self._phase[i]
        table = self._phases[i]
        _ticks, _consumed, produced, wake, keep = table[p]
        tokens = self._tokens
        for e, q in produced:
            tokens[e] += q
        self._busy[i] = None
        self._phase[i] = p + 1 if p + 1 < len(table) else 0
        self._done[i] += 1
        if self._done[i] == self._target[i]:
            self._below -= 1
        if keep:
            self._records.append((i, p, end))
        return wake

    def _settle(self, dirty: int) -> None:
        """Start every enabled actor; resolve zero-duration firings in place.

        Equivalent to rescanning all actors in sorted order until a pass
        starts no zero-duration firing, but only actors in ``dirty`` (a bit
        set: completed, or fed tokens) are checked, since no other actor can
        have become enabled.  A zero-duration firing dirties later actors
        for the current pass and earlier ones for the next, as the rescan
        would reach them.  While :meth:`_probe` traces (``_trace`` a
        list), each comparison of a count with its quantum is appended as
        ``(edge, count - quantum)``.
        """
        phases, phase, tokens, busy, heap, trace = (
            self._phases, self._phase, self._tokens, self._busy, self._heap, self._trace,
        )
        clock = self.clock
        guard = 0
        while dirty:
            todo, dirty = dirty, 0
            while todo:
                low = todo & -todo  # lowest pending actor
                todo ^= low
                i = low.bit_length() - 1
                while busy[i] is None:  # an idle actor fires while enabled
                    ticks, consumed, _produced, _wake, _keep = phases[i][phase[i]]
                    for e, q in consumed:
                        if tokens[e] < q:
                            if trace is not None:
                                trace.append((e, tokens[e] - q))
                            break
                    else:
                        if trace is not None:
                            trace.extend((e, tokens[e] - q) for e, q in consumed)
                        guard += 1
                        if guard > _MICRO_GUARD:
                            raise GraphError(
                                f"zero-delay livelock at t={self.now} "
                                f"in graph {self.graph.name!r}"
                            )
                        for e, q in consumed:
                            tokens[e] -= q
                        end = clock + ticks
                        if end != clock:
                            busy[i] = end
                            heappush(heap, (end, i))
                        else:  # zero duration: completes in place
                            wake = self._complete(i, end)
                            todo |= wake & -(low << 1)  # later actors: this pass
                            dirty |= wake & (low - 1)  # earlier ones: the next
                        continue
                    break  # not enabled

    def advance(self) -> bool:
        """Advance to the next completion instant; never jumps.

        Completes **all** firings ending at that instant, then starts newly
        enabled actors.  Returns False when nothing is in flight (the graph
        is deadlocked or has simply run dry).
        """
        heap = self._heap
        if not heap:
            return False
        t = self.clock = heap[0][0]
        dirty = 0
        while heap and heap[0][0] == t:
            end, i = heappop(heap)
            dirty |= self._complete(i, end)
        self._settle(dirty)
        self.instants += 1
        return True

    def walk(self, limit=None):
        """Process completion instants until a stop; a generator.

        Stops before any instant at which the iteration quota is met or
        ``clock >= limit``, and when nothing is in flight.  Yields None after
        each instant processed one by one (after its settle, before a jump
        is tried), and ``(instants, replays)`` after each periodic jump, the
        engine then standing where stepping would have arrived.

        An exact graph jumps periods: the state after the 1st, 2nd, 4th,
        8th, ... instant since the last jump is kept as the mark, and the
        first :data:`_TRIES` later instants that wake the same actors as
        the mark's are offered to :meth:`_jump`.  A run with no periodic
        structure thus takes one snapshot and a few comparisons per
        doubling of its length.
        """
        heap, phases, tokens, busy, phase, done, target, records = (
            self._heap, self._phases, self._tokens, self._busy, self._phase,
            self._done, self._target, self._records,
        )
        # ``n``: instants stepped by this walk; ``woke``: the mark's wake set
        # (-1: compare with nothing); ``renew``: the instant that takes the
        # next mark (0: none)
        n = base = 0
        mark, woke, tries, renew = None, -1, 0, 1 if self._exact else 0
        while heap and self._below and (limit is None or self.clock < limit):
            t = self.clock = heap[0][0]
            dirty = 0
            while heap and heap[0][0] == t:
                # :meth:`_complete` inlined: this loop runs once per firing.
                # A float graph can tie a Fraction end with a float one: each
                # firing keeps its own end value, as the reference engine does
                end, i = heappop(heap)
                p = phase[i]
                table = phases[i]
                _ticks, _consumed, produced, wake, keep = table[p]
                phase[i] = p + 1 if p + 1 < len(table) else 0
                for e, q in produced:
                    tokens[e] += q
                busy[i] = None
                done[i] += 1
                if done[i] == target[i]:
                    self._below -= 1
                if keep:
                    records.append((i, p, end))
                dirty |= wake
            self._settle(dirty)
            self.instants += 1
            n += 1
            yield None
            if dirty == woke:
                jump = self._jump(mark, n, limit)
                if jump:
                    yield jump
                    base, woke, renew = n, -1, n + 1
                    continue
                tries -= 1
                if not tries:
                    woke = -1
            if n == renew:
                mark = (self.clock, self._tokens[:], self._phase[:], self._busy[:],
                        self._done[:], len(self._records), n)
                woke, tries, renew = dirty, _TRIES, 2 * n - base

    def _span(self, i: int, p: int):
        """Phases from ``p`` on, cyclically, that repeat phase ``p`` of actor ``i``.

        Alike phases share one table entry: equal ticks, quanta and record
        flag.  None when every phase of the actor is alike, single-phase
        actors included: such an actor repeats without end.
        """
        starts = self._starts[i]
        if not starts:
            return None
        k = bisect_right(starts, p)  # the run after p's starts there
        return (starts[k] if k < len(starts) else starts[0] + len(self._phases[i])) - p

    def _jump(self, mark: tuple, count: int, limit) -> tuple[int, int] | None:
        """Replay the interval since ``mark`` as often as it provably recurs.

        ``mark`` is the state after an earlier instant ``t0`` (``count`` is
        this instant's number); the interval ``(t0, clock]`` is replayed
        ``m`` times in one step when the five conditions of DESIGN.md §11
        hold, ``m`` being the largest count for which they do:

        1. an actor that completed ``f > 0`` firings is idle at both ends or
           busy with the same remaining ticks, and the phases it passes
           through over ``m + 1`` intervals all repeat its ``t0`` phase;
        2. any other busy actor is busy at both ends with one end tick,
           which lies past the last replayed instant;
        3. every comparison of a token count with a quantum that the
           interval makes keeps its outcome: a count moves by ``k·Δ`` in
           replay ``k``, so when an edge drifts :meth:`_probe` re-runs the
           interval and bounds ``m`` by each comparison's margin;
        4. no stop falls inside: the quota is not met, every actor short of
           its quota stays short, the last replayed instant precedes the
           horizon;
        5. ``f`` counts every firing, zero-duration ones included, which
           complete inside :meth:`_settle` and never reach the heap.

        Returns ``(instants in the interval, m)``, or None, changing
        nothing, when no replay is exact or ``m`` is unbounded (then the run
        never stops, and steps on as it would).
        """
        if self._below == 0:  # the quota was just met: the run stops here
            return None
        t0, tokens0, phase0, busy0, done0, nrec, count0 = mark
        t1 = self.clock
        period = t1 - t0
        tokens, phase, busy, done, target, phases = (
            self._tokens, self._phase, self._busy, self._done, self._target,
            self._phases,
        )
        m = inf if limit is None else (limit - t1 - 1) // period
        steps = [now - before for now, before in zip(done, done0)]
        for i, f in enumerate(steps):
            end = busy[i]
            if f:
                end0 = busy0[i]
                if (end is None) is not (end0 is None) or (
                        end is not None and end - t1 != end0 - t0):
                    return None
                span = self._span(i, phase0[i])
                if span is not None:
                    m = min(m, (span - 1) // f - 1)
                if done[i] < target[i]:
                    m = min(m, (target[i] - done[i] - 1) // f)
            elif end is not None:
                if busy0[i] != end:
                    return None
                m = min(m, (end - t1 - 1) // period)
        drift = [now - before for now, before in zip(tokens, tokens0)]
        if m >= 1 and any(drift):
            m = min(m, self._probe(mark, count - count0, drift))
        if m == inf or m < 1:
            return None

        shift = m * period
        for i, f in enumerate(steps):
            if f:
                done[i] += m * f
                phase[i] = (phase[i] + m * f) % len(phases[i])
                if busy[i] is not None:
                    busy[i] += shift
        for e, d in enumerate(drift):
            tokens[e] += m * d
        self._heap[:] = [(end, i) for i, end in enumerate(busy) if end is not None]
        heapify(self._heap)
        if nrec < len(self._records):
            # alike phases share their record flag, so every replayed firing
            # is kept exactly when its interval firing was
            block = self._records[nrec:]
            sizes = [len(table) for table in phases]
            self._records.extend([(i, (p + k * steps[i]) % sizes[i], end + k * period)
                                  for k in range(1, m + 1) for i, p, end in block])
        self.clock = t1 + shift
        return count - count0, m

    def _probe(self, mark: tuple, instants: int, drift: list[int]):
        """Replays over which each comparison of the interval keeps its outcome.

        Re-runs the ``instants`` instants since ``mark`` on a copy of the
        engine, tracing every comparison of a count with a quantum as
        ``count - quantum``.  Replay ``k`` makes the same comparison with
        the count moved by ``k·Δ`` of its edge, so one that held (margin
        ``≥ 0``) on an edge drifting down holds for ``margin // -Δ``
        replays, and one that failed on an edge drifting up fails for
        ``(-margin - 1) // Δ``; counts that do not drift compare alike in
        every replay.  The outcome is linear in the replay, so it is the
        same at every replay up to the bound.
        """
        t0, tokens0, phase0, busy0, done0 = mark[:5]
        probe = copy(self)
        probe.clock, probe._tokens, probe._phase, probe._busy, probe._done = (
            t0, tokens0[:], phase0[:], busy0[:], done0[:])
        probe._heap = [(end, i) for i, end in enumerate(busy0) if end is not None]
        heapify(probe._heap)
        probe._records = []  # the re-run's records go unread
        probe._trace = trace = []
        for _ in range(instants):
            probe.advance()
        self.instants += instants
        m = inf
        for e, margin in trace:
            d = drift[e]
            if d < 0 <= margin:
                m = min(m, margin // -d)
            elif margin < 0 < d:
                m = min(m, (-margin - 1) // d)
        return m

    @property
    def idle(self) -> bool:
        """True when no firing is in flight."""
        return not self._heap

    @property
    def completions(self) -> dict[str, int]:
        """Completed firings per actor so far."""
        return dict(zip(self._actor_order, self._done))

    def state_key(self) -> tuple:
        """Canonical state for recurrence detection (time-shift invariant).

        Exact graphs key on exact remaining ticks; float graphs round the
        remaining time to 9 decimals.  A busy actor is still in the phase it
        started, so phases plus remaining times also fix the busy phases.
        """
        clock = self.clock
        if self._exact:
            remaining = tuple(-1 if end is None else end - clock for end in self._busy)
        else:
            remaining = tuple(
                -1.0 if end is None else round(end - clock, 9) for end in self._busy
            )
        return (tuple(self._tokens), tuple(self._phase), remaining)

    # -- records --------------------------------------------------------------
    def _recorded_index(self, actor: str, phase: int | None = None) -> int | None:
        """``actor``'s index; raises if a scoped run did not record it (or
        that phase of it)."""
        k = self._index.get(actor)
        if self._scoped:
            kept = () if k is None else self._kept[k]
            if not kept:
                raise GraphError(f"actor {actor!r} was not recorded in this run")
            if phase is not None and phase not in kept:
                raise GraphError(f"phase {phase} of actor {actor!r} was not recorded "
                                 "in this run")
        return k

    def _firings(self, actor: str | None = None, phase: int | None = None) -> list[Firing]:
        """Recorded firings (of one actor, or all; of one phase) in public time.

        Records are filtered in tick form: a Firing is built only for the
        firings returned.
        """
        names, phases, time = self._actor_order, self._phases, self._time
        records = self._records
        if actor is not None:
            k = self._recorded_index(actor, phase)
            records = [r for r in records if r[0] == k and (phase is None or r[1] == phase)]
        return [
            Firing(names[i], p, time(end - phases[i][p][0]), time(end))
            for i, p, end in records
        ]

    def _ends(self, actor: str) -> list:
        """End ticks of ``actor``'s recorded firings."""
        k = self._recorded_index(actor)
        return [end for i, _p, end in self._records if i == k]


class ExecutionResult:
    """Outcome of a self-timed execution run.

    Firing records stay in the engine's compact tick form until read; whole
    times come back as ``int``, others as ``Fraction`` (floats for graphs
    with float durations).  ``scale`` is the run's ticks per time unit.
    """

    def __init__(self, engine: SelfTimedEngine, deadlocked: bool,
                 iterations_completed: int) -> None:
        self.completions = engine.completions
        self.end_time = engine.now
        self.deadlocked = deadlocked
        self.iterations_completed = iterations_completed
        self.tokens: dict[str, int] = dict(zip(engine._edge_order, engine._tokens))
        self.scale = engine.scale
        self._engine = engine

    @cached_property
    def firings(self) -> list[Firing]:
        """Every recorded firing, in completion order."""
        return self._engine._firings()

    def firings_of(self, actor: str, phase: int | None = None) -> list[Firing]:
        """Completed firings of one actor (of one phase), ordered by start time."""
        return self._engine._firings(actor, phase)

    def production_times(self, actor: str) -> list[float]:
        """End times of an actor's firings — token production instants."""
        time = self._engine._time
        return [time(end) for end in self._engine._ends(actor)]

    def production_ticks(self, actor: str) -> list:
        """:meth:`production_times` in ticks: each is ``scale`` times the time."""
        return self._engine._ends(actor)


def execute(
    graph: CSDFGraph,
    iterations: int | None = None,
    horizon: float | None = None,
    record: bool | Collection[str] | Mapping[str, Collection[int]] = True,
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
        Keep the full firing list (needed for schedules/refinement checks),
        none (False), or only the firings of some phases: a mapping from
        actor names to the phases kept, or a collection of actor names,
        which keeps every phase of those actors.  Only kept firings are
        stored, and a periodic jump replays only those.  Asking the result
        for an actor with no kept phase, or for a phase not kept, raises
        :class:`~repro.dataflow.graph.GraphError`; an actor's other
        accessors return its kept firings.
    allow_deadlock:
        When False, a deadlock raises :class:`DeadlockError` instead of
        returning a result flagged ``deadlocked``.
    """
    if iterations is None and horizon is None:
        raise GraphError("execute() needs an iteration count or a time horizon")
    reps = firing_repetition_vector(graph) if iterations is not None else {}
    engine = SelfTimedEngine(graph, record=record)
    if iterations is not None:
        # count down the actors short of their quota instead of taking a
        # min() over all actors after every event; zero-duration firings
        # may already have completed at t=0
        engine._target = [iterations * reps[a] for a in engine._actor_order]
        engine._below = sum(1 for done, q in zip(engine._done, engine._target) if done < q)
    limit = None
    if horizon is not None:
        # now >= horizon  <=>  clock >= horizon * scale, exactly
        limit = ceil(Fraction(horizon) * engine.scale) if engine._exact else horizon

    for _ in engine.walk(limit):
        pass
    # ran dry short of the quota, before the horizon
    deadlocked = engine.idle and iterations is not None and engine._below > 0 and (
        limit is None or engine.clock < limit
    )

    completed = 0
    if iterations is not None:
        done = engine.completions
        completed = min((done[a] // reps[a] for a in reps), default=0)
    if deadlocked and not allow_deadlock:
        raise DeadlockError(
            f"graph {graph.name!r} deadlocked at t={engine.now} "
            f"after {completed} iterations"
        )
    return ExecutionResult(engine, deadlocked, completed)
