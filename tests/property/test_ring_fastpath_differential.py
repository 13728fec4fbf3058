"""Differential property: the fused ring fast path is trace-equivalent.

The congestion-aware fast path (DESIGN.md §7) must be a pure execution
optimisation: for ANY mix of congestion, fault injection, watchdog
interrupts and reconfiguration, a run with fusion enabled and the same run
under ``REPRO_NO_FASTPATH=1`` semantics (``ring.fastpath = False``) must
produce identical observable behaviour — same per-cycle trace records, same
flit/drop accounting, same delivery instants, same admissions/completions,
same final clock.  Within one cycle the two paths may dispatch in different
micro-order, so records are canonicalised per cycle by sorting.
"""

import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.scenarios import build_scenario
from repro.arch import CFifo, DualRing
from repro.arch.harness import simulate_system
from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec
from repro.sim import FaultInjector, FaultPlan, FaultSpec, Simulator, Tracer
from repro.sim.faults import CFIFO_PTR_LOSS, RING_DELAY, RING_DROP


def canon(records):
    """Per-cycle canonical form of a trace (within-cycle order is free).

    Data values go through ``repr`` so records stay sortable (and
    comparable) when payloads are complex samples or other unordered types.
    """
    return sorted(
        (r.time, r.source, r.kind,
         tuple(sorted((k, repr(v)) for k, v in r.data.items())))
        for r in records
    )


# ---------------------------------------------------- ring-level differential
ring_fault_specs = st.one_of(
    st.builds(
        FaultSpec,
        kind=st.just(RING_DELAY),
        at=st.integers(0, 30),
        duration=st.integers(1, 30),
        extra=st.integers(1, 5),
        ring=st.sampled_from(["data", "credit"]),
        src=st.none() | st.integers(0, 5),
        dst=st.none() | st.integers(0, 5),
    ),
    st.builds(
        FaultSpec,
        kind=st.just(RING_DROP),
        at=st.integers(0, 30),
        duration=st.integers(1, 30),
        probability=st.none() | st.floats(0.05, 0.95, allow_nan=False),
        count=st.none() | st.integers(1, 3),
        ring=st.sampled_from(["data", "credit"]),
        src=st.none() | st.integers(0, 5),
        dst=st.none() | st.integers(0, 5),
    ),
)


@st.composite
def ring_mixes(draw):
    n = draw(st.integers(3, 6))
    hop = draw(st.integers(1, 2))
    drivers = draw(st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 4),                    # idle cycles first
                st.integers(0, 64),                   # src (mod n)
                st.integers(1, 64),                   # dst offset (mod n-1, +1)
                st.sampled_from([DualRing.DATA, DualRing.CREDIT]),
                st.booleans(),                        # await delivery?
            ),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=3,
    ))
    specs = tuple(draw(st.lists(ring_fault_specs, max_size=3)))
    seed = draw(st.integers(0, 2 ** 16))
    return n, hop, drivers, specs, seed


def run_ring_mix(n, hop, drivers, specs, seed, fastpath):
    sim = Simulator()
    tracer = Tracer()
    ring = DualRing(sim, n, hop_latency=hop, tracer=tracer)
    ring.fastpath = fastpath
    if specs:
        ring.fault_injector = FaultInjector(
            FaultPlan(specs=specs, seed=seed), sim, tracer=tracer)
    deliveries = []

    def driver(ops, who):
        for i, (idle, s, d, direction, wait) in enumerate(ops):
            if idle:
                yield sim.timeout(idle)
            src = s % n
            dst = (src + 1 + d % (n - 1)) % n
            tag = (who, i)
            _acc, delivered = ring.post(
                src, dst, tag, ring=direction,
                on_delivery=lambda _w, t=tag: deliveries.append((sim.now, t)),
            )
            if wait:
                yield delivered  # hangs harmlessly if the flit is dropped

    for who, ops in enumerate(drivers):
        sim.process(driver(ops, who), name=f"drv{who}")
    sim.run()
    return {
        "trace": canon(tracer.records),
        "sent": dict(ring.flits_sent),
        "dropped": dict(ring.flits_dropped),
        "deliveries": sorted(deliveries),
        "clock": sim.now,
    }


@given(ring_mixes())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ring_fastpath_differential(mix):
    n, hop, drivers, specs, seed = mix
    fast = run_ring_mix(n, hop, drivers, specs, seed, fastpath=True)
    slow = run_ring_mix(n, hop, drivers, specs, seed, fastpath=False)
    assert fast == slow


# -------------------------------------------------- C-FIFO-level differential
@st.composite
def cfifo_mixes(draw):
    n_fifos = draw(st.integers(1, 2))
    fifos = []
    for _ in range(n_fifos):
        fifos.append((
            draw(st.integers(0, 3)),      # producer station (mod n below)
            draw(st.integers(1, 3)),      # consumer offset
            draw(st.integers(1, 4)),      # capacity
            draw(st.integers(3, 10)),     # words
            draw(st.integers(0, 2)),      # producer pacing
            draw(st.integers(0, 3)),      # consumer pacing
        ))
    ptr_loss = draw(st.booleans())
    specs = tuple(draw(st.lists(ring_fault_specs, max_size=2)))
    if ptr_loss:
        specs = specs + (FaultSpec(
            kind=CFIFO_PTR_LOSS, at=draw(st.integers(0, 20)),
            duration=draw(st.integers(1, 10)), count=1,
            side=draw(st.sampled_from(["write", "read"])),
        ),)
    seed = draw(st.integers(0, 2 ** 16))
    return fifos, specs, seed


def run_cfifo_mix(fifos, specs, seed, fastpath):
    sim = Simulator()
    tracer = Tracer()
    ring = DualRing(sim, 4, tracer=tracer)
    ring.fastpath = fastpath
    injector = None
    if specs:
        injector = FaultInjector(FaultPlan(specs=specs, seed=seed), sim,
                                 tracer=tracer)
        ring.fault_injector = injector
    results = []
    for k, (p, doff, cap, words, ppace, cpace) in enumerate(fifos):
        prod, cons = p % 4, (p + doff) % 4
        if prod == cons:
            cons = (cons + 1) % 4
        fifo = CFifo(sim, ring, prod, cons, capacity=cap,
                     name=f"f{k}", tracer=tracer)
        if injector is not None:
            fifo.fault_injector = injector
        got = []
        results.append((fifo, got))

        def producer(fifo=fifo, words=words, pace=ppace):
            for w in range(words):
                yield from fifo.put(w)
                if pace:
                    yield sim.timeout(pace)

        def consumer(fifo=fifo, words=words, pace=cpace, got=got):
            for _ in range(words):
                got.append((yield from fifo.get()))
                if pace:
                    yield sim.timeout(pace)

        sim.process(producer(), name=f"p{k}")
        sim.process(consumer(), name=f"c{k}")
    # a fault window can strand a consumer waiting on a lost pointer
    # update: bound the run instead of draining (identically in both modes)
    sim.run(until=5_000)
    return {
        "trace": canon(tracer.records),
        "sent": dict(ring.flits_sent),
        "dropped": dict(ring.flits_dropped),
        "fifos": [(f.level_debug(), got) for f, got in results],
        "clock": sim.now,
    }


@given(cfifo_mixes())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cfifo_fastpath_differential(mix):
    fifos, specs, seed = mix
    fast = run_cfifo_mix(fifos, specs, seed, fastpath=True)
    slow = run_cfifo_mix(fifos, specs, seed, fastpath=False)
    assert fast == slow


# -------------------------------------------------- system-level differential
@st.composite
def system_mixes(draw):
    n_streams = draw(st.integers(1, 2))
    streams = tuple(
        StreamSpec(
            f"s{i}",
            Fraction(1, draw(st.integers(50_000, 200_000))),
            draw(st.integers(10, 60)),
            block_size=draw(st.integers(2, 6)),
        )
        for i in range(n_streams)
    )
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=streams,
        entry_copy=draw(st.integers(1, 8)),
        exit_copy=1,
    )
    blocks = draw(st.integers(1, 2))
    specs = tuple(draw(st.lists(st.one_of(
        st.builds(
            FaultSpec,
            kind=st.just(RING_DELAY),
            at=st.integers(0, 200),
            duration=st.integers(1, 100),
            extra=st.integers(1, 4),
            count=st.integers(1, 3),
        ),
        st.builds(
            FaultSpec,
            kind=st.just(RING_DROP),
            at=st.integers(0, 200),
            duration=st.integers(1, 50),
            count=st.integers(1, 2),
        ),
        st.builds(
            FaultSpec,
            kind=st.just(CFIFO_PTR_LOSS),
            at=st.integers(0, 200),
            duration=st.integers(1, 50),
            count=st.integers(1, 2),
            side=st.sampled_from(["write", "read"]),
        ),
    ), max_size=2)))
    seed = draw(st.integers(0, 2 ** 16))
    return system, blocks, specs, seed


def run_system_mix(system, blocks, specs, seed, fastpath):
    plan = FaultPlan(specs=specs, seed=seed) if specs else None
    # both legs must be env-independent: the differential is fast-vs-slow
    # even when the surrounding test run exports REPRO_NO_FASTPATH=1
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_NO_FASTPATH", None)
        run = simulate_system(system, blocks=blocks, faults=plan,
                              no_fastpath=not fastpath)
    chain = run.chain
    return {
        "bindings": {
            b.name: (list(b.admissions), list(b.completions),
                     b.samples_in, b.samples_out, b.blocks_done)
            for b in chain.bindings.values()
        },
        "horizon": run.horizon,
        "trace": canon(run.soc.tracer.records) if run.soc.tracer.enabled else None,
        "fastpath_enabled": run.soc.ring.fastpath,
    }


@given(system_mixes())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_system_fastpath_differential(mix):
    """Full gateway runs (watchdog interrupts and all) are trace-equivalent."""
    system, blocks, specs, seed = mix
    fast = run_system_mix(system, blocks, specs, seed, fastpath=True)
    slow = run_system_mix(system, blocks, specs, seed, fastpath=False)
    assert fast["fastpath_enabled"] and not slow["fastpath_enabled"]
    fast.pop("fastpath_enabled")
    slow.pop("fastpath_enabled")
    assert fast == slow


# ------------------------------------------------ generated-corpus differential
#: generated scenarios 0-7: seeds 0, 1, 4 and 7 are churn points (stream
#: joins/leaves under a join/leave-only fault plan), 2, 3, 5 and 6 static
CORPUS_SEEDS = range(8)


def run_corpus_point(seed, fastpath):
    scenario = build_scenario(f"scenario://generated?seed={seed}")
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_NO_FASTPATH", None)
        run = scenario.with_no_fastpath(not fastpath).build().run
    return {
        "bindings": {
            b.name: (list(b.admissions), list(b.completions))
            for b in run.chain.bindings.values()
        },
        "horizon": run.horizon,
        "trace": canon(run.soc.tracer.records),
        "transitions": (None if run.reconfig is None
                        else [t.to_dict() for t in run.reconfig.transitions]),
        "slow_flits": sum(run.soc.ring.flits_slow.values()),
    }


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_fastpath_differential(seed):
    """Corpus points, churn included, are identical on both paths; the
    compiled one sends no flit down the per-hop generator."""
    fast = run_corpus_point(seed, fastpath=True)
    slow = run_corpus_point(seed, fastpath=False)
    assert fast.pop("slow_flits") == 0
    assert slow.pop("slow_flits") > 0
    assert fast == slow
