"""Edge-path tests: failure branches of the composite events and analyses."""


from repro.dataflow import SDFGraph, steady_state_throughput
from repro.sim import Simulator


def test_any_of_propagates_first_failure():
    sim = Simulator()
    slow = sim.timeout(100)
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield sim.any_of([slow, bad])
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(waiter())
    bad.fail(RuntimeError("boom"))
    sim.run(until=200)
    assert caught == ["boom"]


def test_any_of_ignores_later_events():
    sim = Simulator()
    got = []

    def waiter():
        idx, val = yield sim.any_of([sim.timeout(1, "a"), sim.timeout(2, "b")])
        got.append((idx, val))

    sim.process(waiter())
    sim.run()
    assert got == [(0, "a")]


def test_interrupt_while_waiting_on_subprocess():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(50)
        log.append("child done")

    def parent():
        from repro.sim import Interrupt

        try:
            yield sim.process(child())
        except Interrupt:
            log.append(("interrupted", sim.now))

    def attacker(p):
        yield sim.timeout(7)
        p.interrupt()

    p = sim.process(parent())
    sim.process(attacker(p))
    sim.run()
    assert ("interrupted", 7) in log
    assert "child done" in log  # the child itself keeps running


def test_statespace_reference_actor_outside_live_part():
    """A reference actor that can never fire yields zero throughput (not a
    crash): the recurring state simply never advances it."""
    g = SDFGraph("partial")
    g.add_actor("live", 2)
    g.add_edge("live", "live", tokens=1, name="self")
    # a deadlocked pair alongside the live loop: they never fire, but the
    # graph as a whole keeps recurring
    g.add_actor("dead1", 1)
    g.add_actor("dead2", 1)
    g.add_edge("dead1", "dead2", name="d12")
    g.add_edge("dead2", "dead1", name="d21")
    r = steady_state_throughput(g, actor="dead1", max_steps=10_000)
    assert r.firing_rate == 0
    assert not r.deadlocked  # 'live' keeps spinning


def test_zero_reconfigure_stream_allowed():
    from fractions import Fraction

    from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec, compute_block_sizes

    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=(StreamSpec("s", Fraction(1, 100), reconfigure=0),),
        entry_copy=5,
        exit_copy=1,
    )
    res = compute_block_sizes(system)
    assert res.block_sizes["s"] >= 1
