"""Discrete-event simulation kernel.

This module provides the substrate on which the MPSoC architecture model
(:mod:`repro.arch`) is built.  It is a small, dependency-free, cycle-level
discrete-event simulator in the style of SimPy, specialised for this
reproduction:

* time is an integer number of *clock cycles* (the paper expresses every
  latency in cycles: the entry-gateway copies a sample in 15 cycles, the
  accelerators and exit-gateway in 1 cycle, reconfiguration takes 4100
  cycles),
* processes are Python generators that ``yield`` :class:`Event` objects,
* events carry an optional value and fire all their callbacks at a single
  simulated instant.

The kernel is deliberately deterministic: events scheduled for the same cycle
fire in FIFO order of scheduling, which makes traces reproducible and lets the
tests assert exact cycle counts.

Scheduling is a calendar queue (per-cycle FIFO buckets indexed by absolute
cycle, ordered by a min-heap over the occupied cycles) with temporal
decoupling: the clock jumps from occupied cycle to occupied cycle and the
idle spans in between are counted in :attr:`Simulator.skipped_cycles`, never
stepped.  ``benchmarks/bench_kernel_hotpath.py`` measures this scheduler
against the frozen heap-only reference in ``tests/refkernel.py``, and
``tests/property/test_kernel_differential.py`` proves the two produce
bit-identical observable traces.  See DESIGN.md, "Kernel scheduling &
temporal decoupling".
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any

__all__ = [
    "Event",
    "Timeout",
    "Callback",
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

        A scheduled event stays in its calendar bucket but is skipped (lazy
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
        # Timeout creation is the kernel's hottest allocation (every sleep,
        # poll and watchdog arm makes one): initialise every slot in one
        # flat pass instead of Event.__init__ plus re-assignment.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.delay = delay
        # inlined Simulator._schedule (delay is never negative here): one
        # call frame less on the single most frequent scheduling operation
        when = sim.now + int(delay)
        if when == sim._active_cycle:
            sim._active.append(self)
        else:
            bucket = sim._buckets.get(when)
            if bucket is None:
                sim._buckets[when] = [self]
                _heappush(sim._times, when)
            else:
                bucket.append(self)


class Callback(Event):
    """A bare function invocation at an absolute cycle.

    The lightweight half of a *precompiled event chain* (see
    :meth:`Simulator.schedule_at`): where a generator process costs a
    :class:`Process` object plus one resume per ``yield``, a Callback is a
    single event whose only callback is ``fn`` itself.  It follows the full
    event contract — it lives in the calendar buckets, fires in FIFO order
    within its cycle, can be :meth:`~Event.cancel`-led lazily, survives
    ``run(until=cycle)`` clamping past idle tails, and extra watchers may
    ``add_callback`` (they run after ``fn``).

    With ``defer=True`` the callback fires *late* within its cycle: when
    dispatch reaches it, it re-appends a tail event to the end of the
    cycle's live firing list and runs ``fn`` there, i.e. after every event
    that was scheduled for the cycle before the cycle began — the
    within-cycle position a generator resume would occupy after being
    appended behind continuously re-scheduled pollers.  (The ring's
    compiled transit ultimately went further — ``_FastFlit`` subclasses
    :class:`Event` directly and re-arms itself, avoiding even the
    one-Callback-per-step allocation — but Callback remains the
    general-purpose chain primitive and is pinned by the kernel tests.)
    """

    __slots__ = ("fn", "defer")

    def __init__(
        self,
        sim: "Simulator",
        cycle: int,
        fn: Callable[[], None],
        defer: bool = False,
    ) -> None:
        cycle = int(cycle)
        if cycle < sim.now:
            raise SimulationError(
                f"cannot schedule a callback in the past "
                f"(cycle {cycle} < now {sim.now})"
            )
        # flat one-pass init, same as Timeout: this is a hot-path allocation
        self.sim = sim
        self.callbacks = [self._invoke]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.fn = fn
        self.defer = defer
        if cycle == sim._active_cycle:
            sim._active.append(self)
        else:
            bucket = sim._buckets.get(cycle)
            if bucket is None:
                sim._buckets[cycle] = [self]
                _heappush(sim._times, cycle)
            else:
                bucket.append(self)

    def _invoke(self, _event: "Event") -> None:
        if self.defer and self.sim._active is not None:
            # Re-enter the live bucket at the tail: build the tail event with
            # the same flat init (the head's callbacks list is already
            # consumed by the dispatch loop, so it cannot be requeued).
            tail = Callback.__new__(Callback)
            tail.sim = self.sim
            tail.callbacks = [tail._invoke]
            tail._value = None
            tail._ok = True
            tail._triggered = True
            tail._processed = False
            tail._cancelled = self._cancelled
            tail.fn = self.fn
            tail.defer = False
            self.sim._active.append(tail)
            return
        self.fn()


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

    __slots__ = ("name", "_gen", "_waiting_on", "_stale", "_resume_cb")

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
        # One bound method for the process's whole life, instead of a fresh
        # allocation on every yield.
        self._resume_cb = self._resume
        # Kick off at the current instant.
        init = Event(sim)
        init.succeed()
        init.add_callback(self._resume_cb)

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
        if self._stale and event in self._stale:
            # Detached by interrupt(); its wakeup must never reach the
            # generator, no matter when it arrives relative to the Interrupt.
            # Checked first: a re-wait on a still-pending stale event must
            # swallow the detached registration, not the fresh one.
            self._stale.discard(event)
            return
        if event is self._waiting_on:
            # Fast path: the event we are parked on woke us (the dominant
            # resume by far — every Timeout expiry lands here).
            self._waiting_on = None
        elif self._triggered or self._waiting_on is not None:
            # Generator already finished, or interrupted while waiting and
            # this is the stale wakeup from the detached event.
            return
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if not self._fail_or_raise(err):
                raise
            return
        # inlined _wait_on fast path: one call frame less per yield
        if isinstance(target, Event) and target.sim is self.sim:
            self._waiting_on = target
            callbacks = target.callbacks
            if callbacks is None:
                self._resume(target)  # already processed: wake right now
            else:
                callbacks.append(self._resume_cb)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, expected Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from a different simulator")
        self._waiting_on = target
        target.add_callback(self._resume_cb)

    def _fail_or_raise(self, err: BaseException) -> bool:
        """Fail this process-event if someone is watching, else propagate."""
        if self.callbacks:
            self.fail(err)
            return True
        return False


class Simulator:
    """The event loop: a calendar queue of per-cycle FIFO buckets.

    Scheduling structure (timing wheel / calendar queue):

    * ``_buckets`` maps an absolute cycle to the list of events scheduled
      for that cycle.  Appending preserves the deterministic same-cycle
      FIFO order the previous tuple heap obtained from per-event sequence
      numbers — without allocating a tuple or bumping a counter per event;
    * ``_times`` is a min-heap over the *distinct occupied cycles*: one
      heap operation per cycle instead of one per event, which is what
      makes same-cycle bursts (ring flit hops, C-FIFO pointer updates,
      gateway copy completions) cheap;
    * while a bucket is being drained, ``_active``/``_active_cycle`` expose
      it so zero-delay schedules append straight onto the live bucket and
      fire in the same pass — the same-cycle Event-burst fast path, which
      bypasses the dict and the heap entirely.

    Temporal decoupling: the clock jumps from occupied cycle to occupied
    cycle; idle spans are counted in :attr:`skipped_cycles` and never
    stepped or simulated.

    Clock semantics (uniform, regression-pinned in
    ``tests/unit/test_sim_kernel.py``):

    * ``run()``, ``run(until=event)`` and the bounded drivers
      :meth:`run_until`/:meth:`run_while` leave the clock on the cycle of
      the **last dispatched event**.  A bounded driver that gives up
      (queue drained, or next live event beyond ``limit``) does *not*
      advance to the limit, so measurement horizons are never inflated by
      idle tails;
    * ``run(until=cycle)`` always ends with ``now == until`` — its
      contract is "advance simulated time to exactly this cycle"; an idle
      tail is accounted to :attr:`skipped_cycles`, not simulated;
    * ``run(until=event)`` raises a :class:`SimulationError` naming the
      cancellation when the target event was cancelled and can never
      fire, rather than the generic ran-dry message.

    The frozen heap-only predecessor lives in ``tests/refkernel.py``;
    ``tests/property/test_kernel_differential.py`` holds the two kernels
    to bit-identical observable traces and
    ``benchmarks/bench_kernel_hotpath.py`` records the speedup in
    ``BENCH_kernel_wheel.json``.
    """

    __slots__ = ("now", "skipped_cycles", "_buckets", "_times", "_active",
                 "_active_cycle")

    def __init__(self) -> None:
        self.now: int = 0
        #: cycles crossed without dispatching any event (clock jumps)
        self.skipped_cycles: int = 0
        self._buckets: dict[int, list[Event]] = {}
        self._times: list[int] = []
        self._active: list[Event] | None = None
        self._active_cycle: int = -1

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` cycles from now."""
        return Timeout(self, int(delay), value)

    def schedule_at(
        self, cycle: int, fn: Callable[[], None], defer: bool = False
    ) -> Callback:
        """Run ``fn()`` at absolute ``cycle``; returns the cancellable event.

        This is the precompiled-event-chain primitive: work whose timing
        is known in closed form at injection schedules its side effects
        as plain callbacks instead of driving a generator through every
        step.  The
        returned :class:`Callback` obeys the normal event contract
        (deterministic FIFO order within the cycle, lazy ``cancel()``,
        unaffected by ``run(until=...)`` horizon clamping short of its
        cycle).  ``defer=True`` pushes ``fn`` to the tail of its cycle's
        firing list, reproducing the within-cycle position of a generator
        resume (see :class:`Callback`).
        """
        return Callback(self, cycle, fn, defer)

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
        when = self.now + int(delay)
        if when == self._active_cycle:
            # Same-cycle burst fast path: the bucket for this cycle is being
            # drained right now — appending joins the current firing pass in
            # FIFO position without touching the dict or the heap.
            self._active.append(event)
            return
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            _heappush(self._times, when)
        else:
            bucket.append(event)

    def peek(self) -> int | None:
        """Cycle of the next live scheduled event, or None when idle.

        Prunes consumed heap entries and cancelled bucket prefixes as a
        side effect, so a successful peek leaves the next live event at
        the front of ``_buckets[peek()]`` and its cycle on top of the
        heap (lazy deletion happens here, once, not per driver iteration).
        """
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket is None:
                # bucket already drained; stale heap entry
                _heappop(times)
                continue
            i = 0
            n = len(bucket)
            while i < n and bucket[i]._cancelled:
                i += 1
            if i == n:
                # cancelled-only bucket: drop it without advancing the clock
                del buckets[t]
                _heappop(times)
                continue
            if i:
                del bucket[:i]
            return t
        return None

    def step(self) -> None:
        """Fire the single next live event."""
        t = self.peek()
        if t is None:
            raise SimulationError("step() on an empty event queue")
        bucket = self._buckets[t]
        event = bucket.pop(0)  # live: peek() pruned the cancelled prefix
        if not bucket:
            del self._buckets[t]
        if t > self.now:
            self.skipped_cycles += t - self.now - 1
            self.now = t
        event._fire()

    def run(self, until: int | Event | None = None) -> Any:
        """Run the event loop.

        ``until`` may be an absolute cycle count (run to exactly that
        cycle: events at it fire, the clock always ends on it), an
        :class:`Event` (run until it fires; its value is returned; a failed
        event re-raises; a cancelled target raises :class:`SimulationError`
        naming the cancellation), or None (run until the queue drains; the
        clock rests on the last dispatched event).
        """
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not self._drive(stop, None):
                    if stop._cancelled:
                        raise SimulationError(
                            f"target event was cancelled (clock at cycle "
                            f"{self.now}); it can never fire"
                        )
                    raise SimulationError(
                        f"simulation ran dry at cycle {self.now} "
                        "before target event fired"
                    )
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            horizon = int(until)
            if horizon < self.now:
                raise SimulationError("cannot run backwards in time")
            self._run_to(horizon)
            return None
        self._run_all()
        return None

    def _run_all(self) -> None:
        """Drain the queue completely; clock rests on the last dispatch."""
        buckets = self._buckets
        times = self._times
        while times:
            t = _heappop(times)
            bucket = buckets.pop(t, None)
            if bucket is None:
                continue
            i = 0
            n = len(bucket)
            while i < n and bucket[i]._cancelled:
                i += 1
            if i == n:
                continue
            if t > self.now:
                self.skipped_cycles += t - self.now - 1
                self.now = t
            self._active = bucket
            self._active_cycle = t
            try:
                while i < len(bucket):
                    event = bucket[i]
                    i += 1
                    if event._cancelled:
                        continue
                    # inlined Event._fire: the Timeout-expiry hot path
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
            finally:
                self._active = None
                self._active_cycle = -1
                if i < len(bucket):
                    # aborted mid-bucket (process exception): keep the tail
                    # scheduled, exactly like the heap kernel did
                    del bucket[:i]
                    buckets[t] = bucket
                    _heappush(times, t)

    def _run_to(self, horizon: int) -> None:
        """Fire everything at cycles <= horizon; clock ends on horizon."""
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            if t > horizon:
                break
            _heappop(times)
            bucket = buckets.pop(t, None)
            if bucket is None:
                continue
            i = 0
            n = len(bucket)
            while i < n and bucket[i]._cancelled:
                i += 1
            if i == n:
                continue
            if t > self.now:
                self.skipped_cycles += t - self.now - 1
                self.now = t
            self._active = bucket
            self._active_cycle = t
            try:
                while i < len(bucket):
                    event = bucket[i]
                    i += 1
                    if event._cancelled:
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
            finally:
                self._active = None
                self._active_cycle = -1
                if i < len(bucket):
                    del bucket[:i]
                    buckets[t] = bucket
                    _heappush(times, t)
        if horizon > self.now:
            # temporal decoupling: the idle tail is skipped, not simulated
            self.skipped_cycles += horizon - self.now
            self.now = horizon

    def _drive(self, stop: Event, limit: int | None) -> bool:
        """Fire events in order until ``stop`` has been processed.

        Never fires an event past ``limit`` (None = unbounded).  Returns
        True once ``stop`` was processed; False when it gave up first
        (queue drained, or next live event beyond the limit) — the clock
        then rests on the last dispatched event.
        """
        buckets = self._buckets
        times = self._times
        while not stop._processed:
            t = self.peek()
            if t is None or (limit is not None and t > limit):
                return stop._processed
            _heappop(times)  # peek() left t on top with a live bucket
            bucket = buckets.pop(t)
            if t > self.now:
                self.skipped_cycles += t - self.now - 1
                self.now = t
            i = 0
            self._active = bucket
            self._active_cycle = t
            try:
                while i < len(bucket):
                    if stop._processed:
                        break
                    event = bucket[i]
                    i += 1
                    if event._cancelled:
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
            finally:
                self._active = None
                self._active_cycle = -1
                if i < len(bucket):
                    # stop fired (or a process raised) mid-bucket: the
                    # same-cycle tail stays scheduled for a later run call
                    del bucket[:i]
                    buckets[t] = bucket
                    _heappush(times, t)
        return True

    def run_until(self, stop: Event, limit: int) -> bool:
        """Run until ``stop`` fires, never past cycle ``limit``.

        Returns True once ``stop`` has fired; False when the queue drained
        or the next live event lies beyond ``limit`` first (the clock then
        rests on the last fired event, not on ``limit`` — see the class
        docstring's clock-semantics contract).  This is the bounded-horizon
        driver loop of the architecture harness.
        """
        return self._drive(stop, limit)

    def run_while(self, pending: Callable[[], bool], limit: int) -> bool:
        """Run while ``pending()`` is true, never past cycle ``limit``.

        The predicate is re-evaluated before every event dispatch.  Returns
        True once ``pending()`` turned false; False when the queue drained
        or the next live event lies beyond ``limit`` while still pending
        (the clock then rests on the last fired event, not on ``limit``).
        """
        buckets = self._buckets
        times = self._times
        while pending():
            t = self.peek()
            if t is None or t > limit:
                return not pending()
            _heappop(times)
            bucket = buckets.pop(t)
            if t > self.now:
                self.skipped_cycles += t - self.now - 1
                self.now = t
            i = 0
            self._active = bucket
            self._active_cycle = t
            try:
                while i < len(bucket):
                    if not pending():
                        break
                    event = bucket[i]
                    i += 1
                    if event._cancelled:
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
            finally:
                self._active = None
                self._active_cycle = -1
                if i < len(bucket):
                    del bucket[:i]
                    buckets[t] = bucket
                    _heappush(times, t)
        return True
