"""Frozen heap-only reference implementation of the simulation kernel.

This is the binary-heap event loop that :mod:`repro.sim.kernel` shipped
with before the calendar-queue rewrite, kept verbatim as an executable
specification.  It exists for two jobs only:

* **differential testing** — the hypothesis properties in
  ``tests/property/test_kernel_differential.py`` replay random programs
  (timeouts, interrupts, cancellations, AnyOf races) on both kernels and
  require bit-identical observable traces;
* **before/after benchmarking** — ``benchmarks/bench_kernel_hotpath.py``
  measures events/sec here versus the production kernel and records the
  comparison in ``BENCH_kernel_wheel.json``.

Do not "improve" this module: its value is that it does not change.  It is
a complete copy (events, processes, heap scheduler) rather than a subclass
so the reference semantics cannot drift when the production classes are
optimised.  It lives under ``tests/`` because production code never
imports it — only tests and benchmarks do.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
]


class SimulationError(RuntimeError):
    """Raised for protocol violations inside the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a simulated instant.

    An event starts *pending*, may be *triggered* (scheduled to fire) and is
    finally *processed* once its callbacks have run.  Processes wait on events
    by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
                 "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (vs. failed)."""
        return self._ok

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn and will never fire."""
        return self._cancelled

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Schedule this event to fire successfully after ``delay`` cycles."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Schedule this event to fire as a failure after ``delay`` cycles."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def cancel(self) -> None:
        """Withdraw the event: its callbacks will never run.

        A scheduled event stays in the simulator heap but is skipped (lazy
        deletion); an event queued as a waiter (e.g. a pending
        :meth:`Signal.acquire`) is skipped by the owning primitive without
        consuming any resource.  Cancelling an already-processed event is an
        error — its callbacks have run.
        """
        if self._processed:
            raise SimulationError("cannot cancel an already-processed event")
        self._cancelled = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event fires (or immediately if done)."""
        if self.callbacks is None:
            # Already processed: run at the current instant.
            fn(self)
        else:
            self.callbacks.append(fn)

    def _fire(self) -> None:
        if self._cancelled:
            return
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that fires automatically ``delay`` cycles after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class AllOf(Event):
    """Fires when all constituent events have fired.

    Value is the list of the constituent values in input order.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = 0
        for ev in self._events:
            if ev.processed:
                if not ev.ok and not self._triggered:
                    self.fail(ev.value)
            else:
                self._remaining += 1
                ev.add_callback(self._on_child)
        if self._remaining == 0 and not self._triggered:
            self.succeed([ev.value for ev in self._events])

    def _on_child(self, ev: Event) -> None:
        if not ev.ok:
            if not self._triggered:
                self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0 and not self._triggered:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Fires as soon as any constituent event fires; value is (index, value)."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        for idx, ev in enumerate(self._events):
            ev.add_callback(lambda e, i=idx: self._on_child(i, e))
        if self._triggered:
            # a constituent was already processed; reap timers registered
            # after the winner resolved us
            self._cancel_losers(None)

    def _on_child(self, idx: int, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed((idx, ev.value))
        else:
            self.fail(ev.value)
        self._cancel_losers(ev)

    def _cancel_losers(self, winner: Event | None) -> None:
        """Cancel losing constituent timers once the race is decided.

        A stale Timeout must neither wake a process later nor keep the
        event queue artificially non-empty.  Only sole-watcher timers are
        withdrawn: a Timeout someone else also waits on must still fire.
        """
        for other in self._events:
            if other is winner or not isinstance(other, Timeout):
                continue
            if other.processed or other.cancelled:
                continue
            if other.callbacks is not None and len(other.callbacks) == 1:
                other.cancel()


class Process(Event):
    """A generator-based simulated process.

    The generator yields :class:`Event` objects; the process resumes when the
    yielded event fires, receiving the event's value via ``send`` (or its
    exception via ``throw`` for failed events).  A :class:`Process` is itself
    an :class:`Event` that fires when the generator returns, carrying the
    generator's return value.
    """

    __slots__ = ("name", "_gen", "_waiting_on", "_stale")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        super().__init__(sim)
        if not isinstance(gen, Generator):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._waiting_on: Event | None = None
        # Events detached by interrupt() whose wakeup must be swallowed even
        # if they fire before the Interrupt is delivered.
        self._stale: set[Event] = set()
        # Kick off at the current instant.
        init = Event(sim)
        init.succeed()
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and not waited.processed:
            sole = waited.callbacks is not None and len(waited.callbacks) == 1
            if sole and (not waited.triggered or isinstance(waited, Timeout)):
                # We were the sole watcher of a still-pending event (e.g. a
                # queued Signal.acquire): withdraw it so it cannot consume a
                # resource unit nobody will ever collect.  A Timeout counts
                # as triggered from birth but holds no resource, so a
                # sole-watched one is likewise safe to reclaim — leaving it
                # would keep the heap (and the clock) running to its expiry.
                waited.cancel()
            else:
                # The detached event may still fire before the Interrupt below
                # is delivered (both can land at the current instant); mark it
                # stale so _resume swallows it instead of double-resuming the
                # generator.
                self._stale.add(waited)
        # Deliver asynchronously so the interrupter keeps running first.
        ev = Event(self.sim)
        ev.succeed()
        ev.add_callback(lambda _e: self._throw(Interrupt(cause), waited))

    def _throw(self, exc: BaseException, waited: Event | None) -> None:
        if not self.is_alive:
            return
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if not self._fail_or_raise(err):
                raise
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        if event in self._stale:
            # Detached by interrupt(); its wakeup must never reach the
            # generator, no matter when it arrives relative to the Interrupt.
            self._stale.discard(event)
            return
        if not self.is_alive:
            return
        if self._waiting_on is not None and event is not self._waiting_on:
            # Interrupted while waiting; stale wakeup from the old event.
            return
        self._waiting_on = None
        try:
            if event.ok:
                target = self._gen.send(event.value)
            else:
                target = self._gen.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if not self._fail_or_raise(err):
                raise
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, expected Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from a different simulator")
        self._waiting_on = target
        target.add_callback(self._resume)

    def _fail_or_raise(self, err: BaseException) -> bool:
        """Fail this process-event if someone is watching, else propagate."""
        if self.callbacks:
            self.fail(err)
            return True
        return False


class Simulator:
    """The event loop: a priority queue of (cycle, sequence, event).

    The loop methods (:meth:`run`, :meth:`run_until`) pop events inline —
    same-cycle bursts drain in one tight loop without the per-event
    ``peek``/``purge``/``step`` call triple — which is worth
    double-digit percentages on simulation-bound runs (see
    ``benchmarks/bench_kernel_hotpath.py``).  :meth:`peek`/:meth:`step`
    remain for drivers that need per-event control.
    """

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` cycles from now."""
        return Timeout(self, int(delay), value)

    def process(self, gen: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Register and start a generator as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self.now + int(delay), seq, event))

    def _purge_cancelled(self) -> None:
        """Drop cancelled events from the head of the queue (lazy deletion)."""
        queue = self._queue
        while queue and queue[0][2]._cancelled:
            _heappop(queue)

    def peek(self) -> int | None:
        """Cycle of the next live scheduled event, or None when idle."""
        self._purge_cancelled()
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Fire the single next live event."""
        self._purge_cancelled()
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = _heappop(self._queue)
        self.now = when
        event._fire()

    def run(self, until: int | Event | None = None) -> Any:
        """Run the event loop.

        ``until`` may be an absolute cycle count, an :class:`Event` (run until
        it fires; its value is returned; a failed event re-raises), or None
        (run until the queue drains).
        """
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                while queue and queue[0][2]._cancelled:
                    _heappop(queue)
                if not queue:
                    raise SimulationError(
                        f"simulation ran dry at cycle {self.now} "
                        "before target event fired"
                    )
                when, _seq, event = _heappop(queue)
                self.now = when
                event._fire()
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            horizon = int(until)
            if horizon < self.now:
                raise SimulationError("cannot run backwards in time")
            while queue:
                head = queue[0]
                if head[2]._cancelled:
                    _heappop(queue)
                    continue
                if head[0] > horizon:
                    break
                when, _seq, event = _heappop(queue)
                self.now = when
                event._fire()
            self.now = horizon
            return None
        while queue:
            when, _seq, event = _heappop(queue)
            if event._cancelled:
                continue
            self.now = when
            event._fire()
        return None

    def run_until(self, stop: Event, limit: int) -> bool:
        """Run until ``stop`` fires, never past cycle ``limit``.

        Returns True once ``stop`` has fired; False when the queue drained
        or the next live event lies beyond ``limit`` first (the clock then
        rests on the last fired event, not on ``limit``).  This is the
        bounded-horizon driver loop of the architecture harness, inlined so
        same-cycle event bursts pop in one pass.
        """
        queue = self._queue
        while not stop._processed:
            while queue and queue[0][2]._cancelled:
                _heappop(queue)
            if not queue or queue[0][0] > limit:
                return False
            when, _seq, event = _heappop(queue)
            self.now = when
            event._fire()
        return True
