"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(5)
        done.append(sim.now)
        yield sim.timeout(3)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [5, 8]


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc():
        v = yield sim.timeout(2, value="hello")
        seen.append(v)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_zero_delay_timeout_fires_same_cycle():
    sim = Simulator()
    times = []

    def proc():
        yield sim.timeout(0)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    def trigger():
        yield sim.timeout(7)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [(7, 42)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_return_value_via_run_until():
    sim = Simulator()

    def proc():
        yield sim.timeout(3)
        return "result"

    p = sim.process(proc())
    assert sim.run(until=p) == "result"
    assert sim.now == 3


def test_process_waits_on_subprocess():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(4)
        order.append("child")
        return 99

    def parent():
        v = yield sim.process(child())
        order.append(("parent", v, sim.now))

    sim.process(parent())
    sim.run()
    assert order == ["child", ("parent", 99, 4)]


def test_same_cycle_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_absolute_time():
    sim = Simulator()
    ticks = []

    def clock():
        while True:
            yield sim.timeout(10)
            ticks.append(sim.now)

    sim.process(clock())
    sim.run(until=35)
    assert ticks == [10, 20, 30]
    assert sim.now == 35


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_run_until_event_that_never_fires():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(p):
        yield sim.timeout(6)
        p.interrupt("stop")

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [(6, "stop")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_stale_wakeup_after_interrupt_ignored():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(500)
        log.append(sim.now)

    def attacker(p):
        yield sim.timeout(10)
        p.interrupt()

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    # victim resumed at t=10, then slept 500 more; the stale t=100 wakeup
    # must not resume it early.
    assert log == [510]


def test_all_of_collects_values():
    sim = Simulator()
    got = []

    def proc():
        values = yield sim.all_of([sim.timeout(3, "a"), sim.timeout(7, "b")])
        got.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert got == [(7, ["a", "b"])]


def test_any_of_returns_first():
    sim = Simulator()
    got = []

    def proc():
        idx, val = yield sim.any_of([sim.timeout(9, "slow"), sim.timeout(2, "fast")])
        got.append((sim.now, idx, val))

    sim.process(proc())
    sim.run()
    assert got == [(2, 1, "fast")]


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_exception_propagates_when_unwatched():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("oops")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="oops"):
        sim.run()


def test_process_exception_delivered_to_watcher():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("oops")

    def watcher():
        try:
            yield sim.process(bad())
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(watcher())
    sim.run()
    assert caught == ["oops"]


def test_step_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_step_dispatches_in_run_order():
    """step() fires each event inside its cycle's live bucket, so stepping
    dispatches in exactly the order run() does, deferred callbacks and
    same-cycle reschedules included."""
    def trace(drive):
        sim = Simulator()
        order = []
        sim.schedule_at(3, lambda: order.append(("deferred", sim.now)),
                        defer=True)

        def proc(tag):
            yield sim.timeout(3)
            order.append((tag, sim.now))
            yield sim.timeout(0)
            order.append((tag + "'", sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        drive(sim)
        return order, sim.now

    def stepped(sim):
        while sim.peek() is not None:
            sim.step()

    assert trace(stepped) == trace(lambda sim: sim.run())


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(12)
    assert sim.peek() == 12


def test_interrupt_same_cycle_as_wakeup_no_double_resume():
    """An interrupt landing in the same cycle the waited event fires.

    The attacker is registered first, so at cycle 5 its wakeup precedes
    the victim's: the interrupt detaches the victim from a timeout that is
    already queued to fire later in the same cycle.  That stale wakeup
    must be swallowed — previously it resumed the generator as if the
    wait had completed, and the Interrupt then landed at the wrong yield.
    """
    sim = Simulator()
    log = []
    cell = {}

    def attacker():
        yield sim.timeout(5)
        cell["victim"].interrupt("preempt")

    def victim():
        try:
            yield sim.timeout(5, value="wait-done")
            log.append(("completed", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield sim.timeout(3)
        log.append(("after", sim.now))

    sim.process(attacker())
    cell["victim"] = sim.process(victim())
    sim.run()
    assert log == [("interrupted", 5, "preempt"), ("after", 8)]


def test_all_of_propagates_already_processed_failure():
    """AllOf over an event that already failed *and* was processed.

    Such events were silently skipped, so the AllOf succeeded as if the
    failure never happened; it must fail with the original exception.
    """
    sim = Simulator()
    failed = sim.event()
    failed.fail(RuntimeError("early failure"))
    swallow = sim.event()
    failed.add_callback(lambda _e: swallow.succeed())
    sim.run(until=swallow)  # drive `failed` to processed
    assert failed.processed and not failed.ok

    caught = []

    def proc():
        try:
            yield sim.all_of([failed, sim.timeout(3)])
        except RuntimeError as err:
            caught.append((sim.now, str(err)))

    sim.process(proc())
    sim.run()
    assert caught == [(0, "early failure")]


def test_all_of_already_processed_successes_fire_immediately():
    sim = Simulator()
    a = sim.timeout(1, "a")
    b = sim.timeout(2, "b")
    sim.run()
    assert a.processed and b.processed

    got = []

    def proc():
        values = yield sim.all_of([a, b])
        got.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert got == [(2, ["a", "b"])]


def test_any_of_cancels_losing_timeout():
    """The losing timer of an any_of must not keep the simulation alive."""
    sim = Simulator()
    got = []

    def proc():
        idx, val = yield sim.any_of([sim.timeout(2, "fast"),
                                     sim.timeout(10_000, "slow")])
        got.append((sim.now, idx, val))

    sim.process(proc())
    sim.run()
    assert got == [(2, 0, "fast")]
    # the 10_000-cycle loser was cancelled, not left to run the clock out
    assert sim.now == 2
    assert sim.peek() is None


def test_any_of_does_not_cancel_watched_timeout():
    """A loser someone else also waits on must still fire."""
    sim = Simulator()
    slow = sim.timeout(50, "slow")
    got = []

    def racer():
        idx, val = yield sim.any_of([sim.timeout(2, "fast"), slow])
        got.append(("race", sim.now, val))

    def watcher():
        val = yield slow
        got.append(("watch", sim.now, val))

    sim.process(racer())
    sim.process(watcher())
    sim.run()
    assert ("race", 2, "fast") in got
    assert ("watch", 50, "slow") in got


def test_any_of_with_already_processed_winner_reaps_fresh_timer():
    """A timer registered after a constituent already resolved is cancelled."""
    sim = Simulator()
    done = sim.timeout(1, "done")
    sim.run()
    assert done.processed
    got = []

    def proc():
        idx, val = yield sim.any_of([done, sim.timeout(9_999, "loser")])
        got.append((sim.now, idx, val))

    sim.process(proc())
    sim.run()
    assert got == [(1, 0, "done")]
    assert sim.peek() is None  # the 9_999 timer is gone from the queue


def test_cancelled_event_cannot_fire_or_recancel():
    sim = Simulator()
    t = sim.timeout(5)
    t.cancel()
    assert t.cancelled
    sim.run()
    assert sim.now == 0 and not t.processed
    winner = sim.timeout(1)
    sim.run()
    with pytest.raises(SimulationError):
        winner.cancel()  # already processed


def test_interrupt_cancels_sole_watched_timer():
    """Interrupting a process waiting on its own timer reclaims the timer."""
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(10_000)
        except Interrupt:
            yield sim.timeout(1)

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(3)
        p.interrupt("wake")

    sim.process(killer())
    sim.run()
    assert sim.now == 4  # not 10_000: the orphaned timer was cancelled


# -- clock-semantics contract & temporal decoupling (calendar queue) -------


def test_run_to_cycle_clamps_clock_when_queue_drains_early():
    """``run(until=cycle)`` always ends with ``now == until``.

    The idle tail between the last event and the horizon is *skipped*,
    never simulated: it shows up in ``skipped_cycles``, not in wall time.
    """
    sim = Simulator()

    def one_shot():
        yield sim.timeout(10)

    sim.process(one_shot())
    sim.run(until=1_000)
    assert sim.now == 1_000
    # 0->10 skips cycles 1..9 (9), 10->1000 skips the whole idle tail (990)
    assert sim.skipped_cycles == 9 + 990


def test_run_until_leaves_clock_on_last_dispatched_event():
    """Bounded drivers do NOT clamp: the clock rests where work stopped."""
    sim = Simulator()

    def one_shot():
        yield sim.timeout(10)

    done = sim.process(one_shot())
    assert sim.run_until(done, limit=1_000)
    assert sim.now == 10  # not 1_000


def test_run_until_cancelled_target_raises_clear_error():
    """A cancelled target event is reported as such, not as 'ran dry'."""
    sim = Simulator()
    target = sim.timeout(50)
    target.cancel()
    with pytest.raises(SimulationError, match="cancelled"):
        sim.run(until=target)


def test_run_until_target_cancelled_mid_run_raises_clear_error():
    sim = Simulator()
    target = sim.timeout(50)

    def saboteur():
        yield sim.timeout(10)
        target.cancel()

    sim.process(saboteur())
    with pytest.raises(SimulationError, match="cancelled"):
        sim.run(until=target)


def test_temporal_decoupling_skips_idle_cycles():
    """The cycle-skip path engages on sparse timelines (acceptance gate)."""
    sim = Simulator()

    def sparse():
        yield sim.timeout(1_000)
        yield sim.timeout(1_000)

    sim.process(sparse())
    sim.run()
    assert sim.now == 2_000
    assert sim.skipped_cycles == 2 * 999


def test_dense_timeline_skips_nothing():
    sim = Simulator()

    def dense():
        for _ in range(5):
            yield sim.timeout(1)

    sim.process(dense())
    sim.run()
    assert sim.now == 5
    assert sim.skipped_cycles == 0


def test_same_cycle_schedule_during_drain_stays_fifo():
    """Zero-delay events scheduled *while draining* a cycle run this cycle,
    after everything already queued for it (the active-bucket fast path)."""
    sim = Simulator()
    order = []

    def first():
        yield sim.timeout(1)
        order.append("first")
        yield sim.timeout(0)
        order.append("first-again")

    def second():
        yield sim.timeout(1)
        order.append("second")

    sim.process(first())
    sim.process(second())
    sim.run()
    assert sim.now == 1
    assert order == ["first", "second", "first-again"]
