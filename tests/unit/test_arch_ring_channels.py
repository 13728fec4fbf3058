"""Unit tests for the dual ring, hardware FIFO channels and C-FIFOs."""

import pytest

from repro.arch import CFifo, DualRing, HardwareFifoChannel, RingError
from repro.sim import SimulationError, Simulator, Tracer


# ------------------------------------------------------------------- ring
def test_ring_needs_two_stations():
    with pytest.raises(RingError):
        DualRing(Simulator(), 1)


def test_ring_hop_counts():
    ring = DualRing(Simulator(), 4)
    assert ring.hops(0, 1, DualRing.DATA) == 1
    assert ring.hops(0, 3, DualRing.DATA) == 3
    assert ring.hops(3, 0, DualRing.DATA) == 1  # wraps
    # credit ring runs the other way
    assert ring.hops(1, 0, DualRing.CREDIT) == 1
    assert ring.hops(0, 3, DualRing.CREDIT) == 1


def test_ring_same_station_rejected():
    ring = DualRing(Simulator(), 4)
    with pytest.raises(RingError):
        ring.hops(2, 2, DualRing.DATA)


def test_ring_route_validates_at_bind_time_and_is_cached():
    ring = DualRing(Simulator(), 4)
    for src, dst, kind in ((0, 4, DualRing.DATA), (-1, 2, DualRing.CREDIT),
                           (1, 1, DualRing.DATA), (0, 1, "bogus")):
        with pytest.raises(RingError):
            ring.route(src, dst, kind)
    route = ring.route(3, 1, DualRing.DATA)
    assert ring.route(3, 1, DualRing.DATA) is route
    assert ring.route(3, 1, DualRing.CREDIT) is not route
    assert route.hops == ring.hops(3, 1, DualRing.DATA) == 2
    # binding posts nothing
    assert ring.flits_sent == {DualRing.DATA: 0, DualRing.CREDIT: 0}


def test_ring_delivery_latency_equals_hops():
    sim = Simulator()
    ring = DualRing(sim, 6, hop_latency=1)
    _acc, delivered = ring.post(0, 3, "x")
    sim.run(until=delivered)
    assert sim.now == 3


def test_ring_hop_latency_scales():
    sim = Simulator()
    ring = DualRing(sim, 6, hop_latency=4)
    _acc, delivered = ring.post(0, 2, "x")
    sim.run(until=delivered)
    assert sim.now == 8


def test_ring_posted_write_accepts_before_delivery():
    sim = Simulator()
    ring = DualRing(sim, 8)
    accepted, delivered = ring.post(0, 5, "x")
    sim.run(until=accepted)
    t_accept = sim.now
    sim.run(until=delivered)
    assert t_accept < sim.now


def test_ring_link_contention_serialises():
    """Two flits over the same first link cannot both start at cycle 0."""
    sim = Simulator()
    ring = DualRing(sim, 4)
    _a1, d1 = ring.post(0, 1, "a")
    _a2, d2 = ring.post(0, 1, "b")
    sim.run()
    assert d1.processed and d2.processed
    # second flit is delayed one cycle behind the first on the shared link
    assert ring.flits_sent[DualRing.DATA] == 2


def test_ring_in_order_delivery_same_pair():
    sim = Simulator()
    ring = DualRing(sim, 4)
    order = []
    for tag in ("a", "b", "c"):
        ring.post(0, 2, tag, on_delivery=order.append)
    sim.run()
    assert order == ["a", "b", "c"]


def test_ring_tracer_records_deliveries():
    sim = Simulator()
    tracer = Tracer()
    ring = DualRing(sim, 4, tracer=tracer)
    ring.post(0, 1, "x")
    sim.run()
    assert tracer.count("deliver") == 1


# -------------------------------------------------------- hardware channel
def run_gen(sim, gen):
    return sim.process(gen)


def test_hw_channel_transfers_words_in_order():
    sim = Simulator()
    ring = DualRing(sim, 4)
    ch = HardwareFifoChannel(sim, ring, 0, 2, capacity=2)
    got = []

    def producer():
        for i in range(5):
            yield from ch.send(i)

    def consumer():
        for _ in range(5):
            w = yield from ch.recv()
            got.append(w)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert ch.words_sent == 5
    assert ch.words_received == 5


def test_hw_channel_credits_throttle_producer():
    sim = Simulator()
    ring = DualRing(sim, 4)
    ch = HardwareFifoChannel(sim, ring, 0, 1, capacity=2)
    sent_times = []

    def producer():
        for i in range(4):
            yield from ch.send(i)
            sent_times.append(sim.now)

    def consumer():
        yield sim.timeout(100)
        for _ in range(4):
            yield from ch.recv()
            yield sim.timeout(100)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # first two sends go through on credits; the rest wait for returns
    assert sent_times[1] < 100
    assert sent_times[2] > 100


def test_hw_channel_capacity_validation():
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(SimulationError):
        HardwareFifoChannel(sim, ring, 0, 1, capacity=0)


def test_channels_bind_their_routes_at_construction():
    """A bad station pair fails when the channel is built, not at its first
    word."""
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(RingError):
        HardwareFifoChannel(sim, ring, 2, 2)
    with pytest.raises(RingError):
        CFifo(sim, ring, 1, 4, capacity=2)
    assert ring.clients == []


def test_hw_channel_buffer_never_overflows():
    sim = Simulator()
    ring = DualRing(sim, 4)
    ch = HardwareFifoChannel(sim, ring, 0, 1, capacity=3)

    def producer():
        for i in range(10):
            yield from ch.send(i)

    def consumer():
        for _ in range(10):
            yield sim.timeout(7)
            yield from ch.recv()

    sim.process(producer())
    sim.process(consumer())
    sim.run()  # would raise SimulationError on overflow
    assert ch.buffered == 0


# ------------------------------------------------------------------ C-FIFO
def test_cfifo_put_get_order():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 2, capacity=8)
    got = []

    def producer():
        for i in range(6):
            yield from f.put(i)

    def consumer():
        for _ in range(6):
            w = yield from f.get()
            got.append(w)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4, 5]


def test_cfifo_capacity_blocks_producer():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 1, capacity=2)
    put_times = []

    def producer():
        for i in range(4):
            yield from f.put(i)
            put_times.append(sim.now)

    def consumer():
        yield sim.timeout(50)
        for _ in range(4):
            yield from f.get()
            yield sim.timeout(50)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert put_times[1] < 50 < put_times[2]


def test_cfifo_availability_lags_by_ring_latency():
    """The consumer sees a word only after the write-pointer flit arrives."""
    sim = Simulator()
    ring = DualRing(sim, 8)
    f = CFifo(sim, ring, 0, 4, capacity=4)  # 4 hops away
    arrival = []

    def producer():
        yield from f.put("w")

    def consumer():
        w = yield from f.get()
        arrival.append((sim.now, w))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # data flit (4 hops) + wptr flit behind it
    assert arrival[0][0] >= 4
    assert arrival[0][1] == "w"


def test_cfifo_producer_space_view():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 1, capacity=5)

    def producer():
        for i in range(3):
            yield from f.put(i)

    sim.process(producer())
    sim.run()
    assert f.producer_space == 2
    assert f.consumer_available == 3


def test_cfifo_preload_is_resident_at_once_without_ring_traffic():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 2, capacity=5)
    f.preload(["a", "b", "c"])
    assert f.consumer_available == 3
    assert f.producer_space == 2
    assert f.words_put == 3 and f.high_water == 3
    assert ring.flits_sent == {DualRing.DATA: 0, DualRing.CREDIT: 0}
    assert sim.peek() is None  # nothing scheduled
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield from f.get()))

    sim.process(consumer())
    sim.run()
    assert got == ["a", "b", "c"]
    # each get posted its read-pointer update back to the producer station
    assert ring.flits_sent[DualRing.DATA] == 3
    assert f.producer_space == 5 and f.words_got == 3


def test_cfifo_wait_resident_reads_nothing_and_posts_no_read_pointer():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 2, capacity=3)
    arrived = []

    def producer():
        for word in ("a", "b", "c"):
            yield from f.put(word)

    def waiter():
        yield from f.wait_resident(3)
        arrived.append(sim.now)

    sim.process(producer())
    sim.process(waiter())
    sim.run()
    # the waiter resumes on the last write pointer's arrival, the run's
    # last event
    assert arrived == [sim.now]
    assert f.resident == 3 and f.words_got == 0 and f.producer_space == 0
    # a data and a write-pointer flit per word, and no read pointer
    assert ring.flits_sent[DualRing.DATA] == 6


def test_cfifo_preload_overfill_raises():
    sim = Simulator()
    f = CFifo(sim, DualRing(sim, 4), 0, 1, capacity=3)
    f.preload([0.0, 1.0])
    with pytest.raises(SimulationError):
        f.preload([2.0, 3.0])
    assert f.consumer_available == 2 and f.words_put == 2


def test_cfifo_capacity_validation():
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(SimulationError):
        CFifo(sim, ring, 0, 1, capacity=0)


def test_cfifo_debug_snapshot():
    sim = Simulator()
    ring = DualRing(sim, 4)
    f = CFifo(sim, ring, 0, 1, capacity=4)

    def producer():
        yield from f.put("x")

    sim.process(producer())
    sim.run()
    snap = f.level_debug()
    assert snap["put"] == 1
    assert snap["memory"] == 1
