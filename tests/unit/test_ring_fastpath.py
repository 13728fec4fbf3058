"""Unit tests for the fused ring fast path (DESIGN.md §7).

Covers the `schedule_at` / `Callback` kernel primitive, the fast-path
eligibility rule (every fault-free flit is compiled, congested or not; an
armed fault or the kill switch selects the generator path), the
validation-before-counters contract of `DualRing.post`, the dropped-flit
audit regression, chain fusion (`post_chain` and the fused C-FIFO put) and
the take-rate observability surface.
"""

import pytest

from repro.arch import CFifo, DualRing, HardwareFifoChannel, RingError
from repro.sim import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulationError,
    Simulator,
    Tracer,
)
from repro.sim.faults import RING_DELAY, RING_DROP


@pytest.fixture(autouse=True)
def _fastpath_env_default(monkeypatch):
    """Pin the mechanism, not the environment: these tests must behave the
    same under the CI slow leg's ``REPRO_NO_FASTPATH=1`` (tests that need a
    specific mode set ``ring.fastpath`` explicitly)."""
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)


# ------------------------------------------------------- schedule_at/Callback
def test_schedule_at_fires_at_cycle():
    sim = Simulator()
    fired = []
    sim.schedule_at(7, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7]


def test_schedule_at_same_cycle_runs_later_this_cycle():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(3)
        sim.schedule_at(sim.now, lambda: fired.append(sim.now))
        yield sim.timeout(2)

    sim.process(proc())
    sim.run()
    assert fired == [3]


def test_schedule_at_rejects_past_cycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        sim.schedule_at(2, lambda: None)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_schedule_at_cancel_is_lazy_and_effective():
    sim = Simulator()
    fired = []
    cb = sim.schedule_at(4, lambda: fired.append("nope"))
    cb.cancel()
    sim.schedule_at(6, lambda: fired.append("yes"))
    sim.run()
    assert fired == ["yes"]
    assert cb.cancelled and not cb.processed


def test_callback_extra_watchers_run_after_fn():
    sim = Simulator()
    order = []
    cb = sim.schedule_at(3, lambda: order.append("fn"))
    cb.add_callback(lambda _ev: order.append("watcher"))
    sim.run()
    assert order == ["fn", "watcher"]


def test_callback_survives_run_until_clamping():
    """Checkpoint/restore: a pending callback outlives horizon clamping."""
    sim = Simulator()
    fired = []
    sim.schedule_at(100, lambda: fired.append(sim.now))
    sim.run(until=50)  # idle span: clock clamps to the horizon
    assert sim.now == 50 and fired == []
    sim.run(until=150)
    assert fired == [100]


def test_deferred_callback_runs_after_prescheduled_events():
    """defer=True lands behind events scheduled for the cycle beforehand,
    exactly where a generator resuming on its last hop timeout would sit."""
    sim = Simulator()
    order = []

    def poller():
        for _ in range(5):
            order.append(("poll", sim.now))
            yield sim.timeout(1)

    sim.process(poller())
    sim.schedule_at(3, lambda: order.append(("deferred", sim.now)), defer=True)
    sim.schedule_at(3, lambda: order.append(("plain", sim.now)))
    sim.run()
    at3 = [tag for tag, t in order if t == 3]
    # plain callback fires at its bucket position (before the poll scheduled
    # at cycle 2); the deferred one re-enters at the tail of cycle 3
    assert at3 == ["plain", "poll", "deferred"]


def test_fastpath_flit_in_flight_survives_horizon_clamp():
    """A fused flit's pending hop callbacks survive run(until=...)."""
    sim = Simulator()
    ring = DualRing(sim, 8)
    got = []
    ring.post(0, 5, "x", on_delivery=got.append)  # fused: delivered at 5
    assert ring.flits_fast[DualRing.DATA] == 1
    sim.run(until=3)
    assert got == [] and sim.now == 3
    # the in-flight compiled flit holds exactly its current link's grant
    assert sum(not link.free() for link in ring._links[DualRing.DATA]) == 1
    sim.run(until=20)
    assert got == ["x"]
    assert all(link.free() for link in ring._links[DualRing.DATA])


# ---------------------------------------------------------- eligibility rule
def test_fastpath_takes_uncongested_post():
    sim = Simulator()
    ring = DualRing(sim, 6)
    _acc, delivered = ring.post(0, 3, "x")
    sim.run(until=delivered)
    assert sim.now == 3
    assert ring.flits_fast[DualRing.DATA] == 1
    assert ring.flits_slow[DualRing.DATA] == 0


def _record_instants(sim, out, tag, accepted, delivered):
    """Log the cycles at which one flit's acceptance and delivery fire."""
    accepted.add_callback(lambda _ev: out.__setitem__(f"{tag}_accepted", sim.now))
    delivered.add_callback(lambda _ev: out.__setitem__(f"{tag}_delivered", sim.now))


def test_fastpath_compiles_post_onto_occupied_link():
    """A flit posted while another flit holds its first link is compiled
    too: it parks in the link's grant FIFO (one demotion) and is accepted
    and delivered exactly when the generator path would."""
    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 4)
        ring.fastpath = fastpath
        out = {}
        # "a" acquires link 0 within cycle 0; "b" is posted behind it
        _record_instants(sim, out, "a", *ring.post(0, 1, "a"))
        sim.schedule_at(0, lambda: _record_instants(
            sim, out, "b", *ring.post(0, 1, "b")))
        sim.run()
        return ring, out

    fast_ring, fast_out = run(True)
    slow_ring, slow_out = run(False)
    assert fast_out == slow_out
    assert fast_out == {"a_accepted": 1, "a_delivered": 1,
                        "b_accepted": 2, "b_delivered": 2}
    assert fast_ring.flits_fast[DualRing.DATA] == 2
    assert fast_ring.flits_slow[DualRing.DATA] == 0
    assert fast_ring.flits_demoted[DualRing.DATA] == 1  # "b" waited once
    assert slow_ring.flits_slow[DualRing.DATA] == 2


def test_fastpath_compiles_congested_and_disjoint_posts():
    """Congestion on one route neither stands the fast path down for a
    disjoint route nor sends the congested flit to the generator path."""
    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 8)
        ring.fastpath = fastpath
        out = {}
        _record_instants(sim, out, "a", *ring.post(0, 1, "a"))
        sim.schedule_at(0, lambda: _record_instants(  # link 0 held by "a"
            sim, out, "b", *ring.post(0, 1, "b")))
        sim.schedule_at(0, lambda: _record_instants(  # disjoint route
            sim, out, "c", *ring.post(4, 5, "c")))
        sim.run()
        return ring, out

    fast_ring, fast_out = run(True)
    slow_ring, slow_out = run(False)
    assert fast_out == slow_out
    assert fast_out == {"a_accepted": 1, "a_delivered": 1,
                        "b_accepted": 2, "b_delivered": 2,
                        "c_accepted": 1, "c_delivered": 1}
    assert fast_ring.flits_fast[DualRing.DATA] == 3
    assert fast_ring.flits_slow[DualRing.DATA] == 0
    assert fast_ring.flits_demoted[DualRing.DATA] == 1  # only "b"


def test_compiled_flit_parks_on_commit_cycle_grant_race():
    """Two flits posted in the same cycle can both look eligible — the route
    is free at both post instants — but only one wins the link grant when
    the bucket drains.  The loser's compiled chain parks in the grant's
    FIFO queue (counted in ``flits_demoted``) and continues compiled once
    granted, with timing identical to the slow mode."""
    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 4)
        ring.fastpath = fastpath
        out = {}

        def driver():
            yield sim.timeout(2)
            # at cycle 2 the in-flight 'S' flit has not yet acquired link 1
            # in this bucket, so this post sees the route free and compiles
            # — then S (already queued to run) takes the grant first
            acc, dlv = ring.post(1, 3, "F")
            yield acc
            out["F_accepted"] = sim.now
            yield dlv
            out["F_delivered"] = sim.now

        ring.post(0, 1, "A")  # compiled: takes link 0 within cycle 0
        _sa, s_dlv = ring.post(
            0, 2, "S",  # compiles too, then parks behind A on link 0
            on_delivery=lambda _w: out.__setitem__("S_delivered", sim.now))
        sim.process(driver(), name="drv")
        sim.run()
        return ring, out

    fast_ring, fast_out = run(True)
    slow_ring, slow_out = run(False)
    assert fast_out == slow_out
    assert fast_out == {"S_delivered": 3, "F_accepted": 4, "F_delivered": 5}
    assert fast_ring.flits_fast[DualRing.DATA] == 3
    assert fast_ring.flits_slow[DualRing.DATA] == 0
    assert fast_ring.flits_demoted[DualRing.DATA] == 2  # S and F both parked
    assert slow_ring.flits_demoted[DualRing.DATA] == 0


def test_compiled_flit_parks_mid_flight_after_acceptance():
    """Congestion that materialises after injection parks a compiled flit at
    a later hop: the acceptance already fired at its closed-form instant and
    stands; the remaining hops ride the link's FIFO grant queue.  Timing
    matches the slow mode exactly."""
    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 5)
        ring.fastpath = fastpath
        out = {}

        def watch(tag, acc, dlv):
            yield acc
            out[f"{tag}_accepted"] = sim.now
            yield dlv
            out[f"{tag}_delivered"] = sim.now

        # X compiles: link 1 @0, link 2 @1
        ring.post(1, 3, "X")
        # W compiles behind it: link 0 @0, then meets congestion on link 1
        w_acc, w_dlv = ring.post(0, 3, "W")
        # C compiles and immediately parks behind X on link 1
        c_acc, c_dlv = ring.post(1, 4, "C")
        sim.process(watch("W", w_acc, w_dlv), name="watchW")
        sim.process(watch("C", c_acc, c_dlv), name="watchC")
        sim.run()
        return ring, out

    fast_ring, fast_out = run(True)
    slow_ring, slow_out = run(False)
    assert fast_out == slow_out
    assert fast_out == {"W_accepted": 1, "C_accepted": 2,
                        "W_delivered": 4, "C_delivered": 4}
    assert fast_ring.flits_fast[DualRing.DATA] == 3
    assert fast_ring.flits_slow[DualRing.DATA] == 0
    assert fast_ring.flits_demoted[DualRing.DATA] == 2  # C at link 1, W behind
    assert slow_ring.flits_demoted[DualRing.DATA] == 0


def test_fastpath_armed_fault_falls_back():
    sim = Simulator()
    ring = DualRing(sim, 4)
    plan = FaultPlan(specs=(
        FaultSpec(kind=RING_DELAY, at=0, duration=100, extra=3, ring="data"),
    ))
    ring.fault_injector = FaultInjector(plan, sim)
    _acc, delivered = ring.post(0, 1, "x")
    sim.run(until=delivered)
    assert ring.flits_fast[DualRing.DATA] == 0
    assert ring.flits_slow[DualRing.DATA] == 1
    assert sim.now == 1 + 3  # hop + injected delay


def test_fastpath_hop_latency_arithmetic():
    """accepted at t+H, delivered at t+hops*H for hop_latency H > 1."""
    sim = Simulator()
    ring = DualRing(sim, 6, hop_latency=3)
    accepted, delivered = ring.post(0, 4, "x")
    sim.run(until=accepted)
    assert sim.now == 3
    sim.run(until=delivered)
    assert sim.now == 12
    assert ring.flits_fast[DualRing.DATA] == 1


def test_fastpath_wraparound_route():
    sim = Simulator()
    ring = DualRing(sim, 4)
    got = []
    _acc, delivered = ring.post(3, 1, "w", on_delivery=got.append)  # 3->0->1
    sim.run(until=delivered)
    assert sim.now == 2 and got == ["w"]
    assert ring.flits_fast[DualRing.DATA] == 1


def test_fastpath_credit_ring_direction():
    sim = Simulator()
    ring = DualRing(sim, 4)
    _acc, delivered = ring.post(1, 3, "c", ring=DualRing.CREDIT)  # 1->0->3
    sim.run(until=delivered)
    assert sim.now == 2
    assert ring.flits_fast[DualRing.CREDIT] == 1


def test_no_fastpath_flag_forces_slow_path():
    sim = Simulator()
    ring = DualRing(sim, 6)
    ring.fastpath = False  # what REPRO_NO_FASTPATH=1 sets at construction
    _acc, delivered = ring.post(0, 3, "x")
    sim.run(until=delivered)
    assert sim.now == 3  # identical timing
    assert ring.flits_fast[DualRing.DATA] == 0
    assert ring.flits_slow[DualRing.DATA] == 1


def test_fastpath_timing_matches_slow_path_under_contention_mix():
    """Same arrival cycles for a burst, fused or not."""

    def arrivals(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 6, hop_latency=2)
        ring.fastpath = fastpath
        got = []
        for tag, (s, d) in enumerate([(0, 2), (0, 2), (1, 3), (4, 5)]):
            ring.post(s, d, tag, on_delivery=lambda _w, t=tag: got.append((sim.now, t)))
        sim.run()
        return got

    assert sorted(arrivals(True)) == sorted(arrivals(False))


# ------------------------------------- validation before counters (satellite)
def test_post_validates_before_counting_bad_station():
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(RingError):
        ring.post(0, 9, "x")
    assert ring.flits_sent[DualRing.DATA] == 0


def test_post_validates_before_counting_bad_callback():
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(RingError):
        ring.post(0, 1, "x", on_delivery="not-callable")
    assert ring.flits_sent[DualRing.DATA] == 0
    assert ring.flits_fast[DualRing.DATA] == 0
    assert ring.flits_slow[DualRing.DATA] == 0


# --------------------------------------------- dropped-flit audit regression
def drop_everything_plan():
    return FaultPlan(specs=(
        FaultSpec(kind=RING_DROP, at=0, duration=10_000, ring="data"),
    ))


def test_dropped_flit_releases_links_and_counters_match_slow_mode():
    """A drop in a fast-path-enabled run books identically to slow mode and
    leaves every link grantable (nothing leaks a grant or reservation)."""

    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 4)
        ring.fastpath = fastpath
        ring.fault_injector = FaultInjector(drop_everything_plan(), sim)
        accepted, delivered = ring.post(0, 2, "x")
        sim.run()
        assert accepted.processed  # posted write completed for the producer
        assert not delivered.triggered  # the loss is silent at ring level
        assert all(link.free() for link in ring._links[DualRing.DATA])
        return ring.flits_sent, ring.flits_dropped

    assert run(True) == run(False)


def test_fast_flit_after_drop_window_hits_fast_path_again():
    sim = Simulator()
    ring = DualRing(sim, 4)
    plan = FaultPlan(specs=(
        FaultSpec(kind=RING_DROP, at=0, duration=2, ring="data", count=1),
    ))
    ring.fault_injector = FaultInjector(plan, sim)

    def driver():
        ring.post(0, 2, "lost")
        yield sim.timeout(10)
        _acc, delivered = ring.post(0, 2, "kept")
        yield delivered

    sim.process(driver())
    sim.run()
    assert ring.flits_dropped[DualRing.DATA] == 1
    # eligibility is per flit: the dropped flit went slow, but once the spec
    # is exhausted the injector leaves flits untouched and fusion re-engages
    assert ring.flits_slow[DualRing.DATA] == 1
    assert ring.flits_fast[DualRing.DATA] == 1
    assert ring.flits_sent[DualRing.DATA] == 2


def test_client_attribution_sums_to_ring_totals_when_paths_mix():
    """Under an armed ring delay, compiled and generator flits mix on both
    rings; each bound route credits its client, so the clients' counters
    add up to the ring's."""
    sim = Simulator()
    ring = DualRing(sim, 5)
    plan = FaultPlan(specs=(
        FaultSpec(kind=RING_DELAY, at=0, duration=30, extra=2, ring="data"),
        FaultSpec(kind=RING_DELAY, at=20, duration=30, extra=1, ring="credit"),
    ))
    injector = ring.fault_injector = FaultInjector(plan, sim)
    fifo = CFifo(sim, ring, 0, 2, capacity=3, name="f")
    fifo.fault_injector = injector  # its get waits out a delayed data flit
    chan = HardwareFifoChannel(sim, ring, 2, 4, capacity=2, name="c")
    got = []

    def producer():
        for w in range(12):
            yield from fifo.put(w)

    def forward():
        for _ in range(12):
            yield from chan.send((yield from fifo.get()))

    def consumer():
        for _ in range(12):
            got.append((yield from chan.recv()))

    for gen in (producer(), forward(), consumer()):
        sim.process(gen)
    sim.run()
    assert got == list(range(12))
    for kind in (DualRing.DATA, DualRing.CREDIT):
        assert ring.flits_fast[kind] and ring.flits_slow[kind]
    for counter in ("flits_fast", "flits_slow"):
        assert (sum(getattr(c, counter) for c in ring.clients)
                == sum(getattr(ring, counter).values()))


# ------------------------------------------------------------- chain fusion
def test_post_chain_commits_all_or_nothing():
    sim = Simulator()
    ring = DualRing(sim, 4)
    got = []
    chain = ring.post_chain(0, 1, (
        (0, "a", got.append),
        (1, "b", got.append),
    ))
    assert chain is not None and len(chain) == 2
    sim.run()
    assert got == ["a", "b"]
    assert ring.flits_fast[DualRing.DATA] == 2
    assert ring.flits_sent[DualRing.DATA] == 2


def test_post_chain_timing_matches_sequential_posts():
    sim = Simulator()
    ring = DualRing(sim, 6, hop_latency=2)
    times = []
    chain = ring.post_chain(0, 2, (
        (0, "a", lambda _w: times.append(sim.now)),
        (2, "b", lambda _w: times.append(sim.now)),
    ))
    assert chain is not None
    sim.run()
    # flit 0 injected at 0 over 2 hops of latency 2 -> 4; flit 1 at 2 -> 6
    assert times == [4, 6]


def test_post_chain_declines_with_injector_attached():
    sim = Simulator()
    ring = DualRing(sim, 4)
    ring.fault_injector = FaultInjector(FaultPlan(), sim)
    chain = ring.post_chain(0, 1, ((0, "a", None),))
    assert chain is None
    assert ring.flits_sent[DualRing.DATA] == 0  # no state mutated


def test_post_chain_compiles_head_on_busy_route():
    """A chain whose head route is held commits anyway: the head parks in
    the grant FIFO (one demotion), the tail is relayed at the head's
    acceptance, and every instant equals the unfused caller's posts on a
    generator-path ring (where ``post_chain`` declines)."""
    def run(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 4)
        ring.fastpath = fastpath
        out = {}
        # compiled: acquires link 0 within cycle 0
        _record_instants(sim, out, "blocker", *ring.post(0, 1, "blocker"))

        def deliver(word):
            out[f"{word}_delivered"] = sim.now

        def producer():
            chain = ring.post_chain(0, 1, ((0, "a", deliver), (1, "b", deliver)))
            out["chained"] = chain is not None
            for i, word in enumerate("ab"):
                if chain is None:  # the unfused caller: post, await acceptance
                    accepted, _ = ring.post(0, 1, word, on_delivery=deliver)
                else:
                    accepted = chain[i][0]
                yield accepted
                out[f"{word}_accepted"] = sim.now

        sim.process(producer())
        sim.run()
        return ring, out

    fast_ring, fast_out = run(True)
    slow_ring, slow_out = run(False)
    assert fast_out.pop("chained") and not slow_out.pop("chained")
    assert fast_out == slow_out
    assert fast_out == {"blocker_accepted": 1, "blocker_delivered": 1,
                        "a_accepted": 2, "a_delivered": 2,
                        "b_accepted": 3, "b_delivered": 3}
    assert fast_ring.flits_fast[DualRing.DATA] == 3
    assert fast_ring.flits_slow[DualRing.DATA] == 0
    assert fast_ring.flits_demoted[DualRing.DATA] == 1  # the head only


def test_post_chain_validates_offsets():
    sim = Simulator()
    ring = DualRing(sim, 4)
    with pytest.raises(RingError):
        ring.post_chain(0, 1, ((1, "a", None),))  # must start at 0
    with pytest.raises(RingError):
        ring.post_chain(0, 1, ((0, "a", None), (0, "b", None)))  # not increasing
    with pytest.raises(RingError):
        ring.post_chain(0, 1, ((0, "a", "bad"),))  # non-callable hook
    assert ring.flits_sent[DualRing.DATA] == 0


# ------------------------------------------------------------ fused C-FIFO put
def test_cfifo_fused_put_roundtrip_and_counters():
    sim = Simulator()
    ring = DualRing(sim, 4)
    fifo = CFifo(sim, ring, 0, 2, capacity=4, name="f")
    got = []

    def producer():
        for w in range(6):
            yield from fifo.put(w)

    def consumer():
        for _ in range(6):
            got.append((yield from fifo.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == list(range(6))
    stats = fifo.fastpath_stats()
    assert stats["fused_puts"] + stats["slow_puts"] == 6
    assert stats["fused_puts"] >= 1  # at least the first put fuses
    assert stats["flits_fast"] + stats["flits_slow"] == ring.flits_sent[DualRing.DATA]
    assert fifo.level_debug()["memory"] == 0


def test_cfifo_put_timing_identical_fused_or_not():
    def final_clock(fastpath):
        sim = Simulator()
        ring = DualRing(sim, 4)
        ring.fastpath = fastpath
        fifo = CFifo(sim, ring, 0, 2, capacity=2, name="f")
        got = []

        def producer():
            for w in range(8):
                yield from fifo.put(w)

        def consumer():
            for _ in range(8):
                got.append((yield from fifo.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        return sim.now, got, fifo.level_debug()

    assert final_clock(True) == final_clock(False)


def test_ring_clients_registry_and_summary():
    from repro.sim import fastpath_summary

    sim = Simulator()
    ring = DualRing(sim, 4)
    fifo = CFifo(sim, ring, 0, 2, capacity=4, name="f")
    assert fifo in ring.clients

    def producer():
        yield from fifo.put("w")

    sim.process(producer())
    sim.run()
    summary = fastpath_summary(ring)
    assert summary["enabled"] is True
    assert 0.0 <= summary["take_rate"] <= 1.0
    assert "f" in summary["clients"]
    assert summary["rings"]["data"]["fast"] == ring.flits_fast[DualRing.DATA]


def test_tracer_records_identical_deliveries_fast_and_slow():
    def records(fastpath):
        sim = Simulator()
        tracer = Tracer()
        ring = DualRing(sim, 6, tracer=tracer)
        ring.fastpath = fastpath
        ring.post(0, 3, "x")
        ring.post(2, 4, "y")
        sim.run()
        return sorted(
            (r.time, r.source, r.kind, tuple(sorted(r.data.items())))
            for r in tracer.records
        )

    assert records(True) == records(False)


# -------------------------------------------------- harness dispatch audit
def test_fault_free_harness_run_fires_no_unwatched_event(monkeypatch):
    """Driven event by event, a fault-free harness run fires no event that
    nobody watches: the only callback-free dispatches are processes
    finishing with nobody waiting on them (their end is the work).  An NI
    data flit that asked for a ``delivered`` event would fire one per
    word."""
    from fractions import Fraction

    from repro.arch import simulate_system
    from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec
    from repro.sim.kernel import Process

    unwatched = []

    def run_until(sim, stop, limit):
        while not stop.processed:
            t = sim.peek()
            if t is None or t > limit:
                return False
            event = sim._buckets[t][0]
            if not event.callbacks and not isinstance(event, Process):
                unwatched.append((t, type(event).__name__))
            sim.step()
        return True

    monkeypatch.setattr(Simulator, "run_until", run_until)
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1), AcceleratorSpec("b", 2)),
        streams=(StreamSpec("s0", Fraction(1, 100000), 10, block_size=3),
                 StreamSpec("s1", Fraction(1, 100000), 10, block_size=5)),
        entry_copy=4, exit_copy=1,
    )
    run = simulate_system(system, blocks=2)
    assert all(m.blocks_done == 2 for m in run.metrics().values())
    assert run.chain.channels[0].words_sent > 0
    assert unwatched == []


def test_fault_free_static_run_simulates_no_consumer(monkeypatch):
    """A static harness run reads no output word: no read pointer is
    posted on an output C-FIFO, no consumer process is spawned, and the
    run stops on the cycle its last output word became resident."""
    from fractions import Fraction

    from repro.arch import CFifo, simulate_system
    from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec

    arrivals = {}
    release_avail = CFifo._release_avail

    def recorded(fifo, payload):
        release_avail(fifo, payload)
        arrivals[fifo.name] = fifo.sim.now

    spawned = []
    process = Simulator.process

    def named(sim, gen, name=None):
        spawned.append(name or "")
        return process(sim, gen, name=name)

    monkeypatch.setattr(CFifo, "_release_avail", recorded)
    monkeypatch.setattr(Simulator, "process", named)
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1), AcceleratorSpec("b", 2)),
        streams=(StreamSpec("s0", Fraction(1, 100000), 10, block_size=3),
                 StreamSpec("s1", Fraction(1, 100000), 10, block_size=5)),
        entry_copy=4, exit_copy=1,
    )
    run = simulate_system(system, blocks=2)
    for b in run.chain.bindings.values():
        out = b.out_fifo
        assert out.words_put == out.resident == 2 * b.eta
        assert out.words_got == 0
        assert out.flits_fast + out.flits_slow == 2 * out.words_put
    # gateways, tiles and the stop; the only per-stream process waits
    # once for the stream's outputs
    assert sorted(spawned) == [
        "acc:sys.acc0", "acc:sys.acc1", "arrive:s0", "arrive:s1",
        "entrygw:sys.entry", "exitgw:sys.exit", "harness.stop"]
    assert set(arrivals) == {"s0.out", "s1.out"}
    assert run.horizon == max(arrivals.values())
