"""UTIL (measured): simulated gateway utilization vs the analytical split.

The analysis (repro.core.utilization) predicts how one round-robin rotation
divides between per-sample copying and reconfiguration; here the simulated
architecture under a fully backlogged workload must land near those
fractions — the measured counterpart of the paper's Section VI-A numbers.
"""

from fractions import Fraction

import pytest

from repro.accel import MixerKernel
from repro.arch import Get, MPSoC, Put, TaskSpec
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    analyze_utilization,
)


def run_saturated(etas, eps, R, blocks=6):
    soc = MPSoC(n_stations=8)
    prod = soc.add_processor("p")
    cons = soc.add_processor("c")
    counts = [e * blocks for e in etas]
    ins = [prod.fifo_to(2, capacity=c + 8, name=f"in{i}") for i, c in enumerate(counts)]
    outs = [soc.software_fifo(4, cons, capacity=c + 8, name=f"out{i}")
            for i, c in enumerate(counts)]
    chain = soc.shared_chain(
        "g", [MixerKernel(0.0)],
        [{"name": f"s{i}", "eta": etas[i], "in_fifo": ins[i], "out_fifo": outs[i],
          "states": [MixerKernel(0.0).get_state()], "reconfigure_cycles": R}
         for i in range(len(etas))],
        entry_copy=eps, exit_copy=1,
    )

    def producer(fifo, n):
        def gen():
            for k in range(n):
                yield Put(fifo, 1.0)
        return gen

    def consumer(fifo, n):
        def gen():
            for _ in range(n):
                yield Get(fifo)
        return gen

    for i, c in enumerate(counts):
        prod.add_task(TaskSpec(f"p{i}", producer(ins[i], c)))
        cons.add_task(TaskSpec(f"c{i}", consumer(outs[i], c)))
    prod.start()
    cons.start()
    # run until the last stream completion, then measure over that span
    soc.run(until=(R + max(etas) * (eps + 10)) * blocks * (len(etas) + 2) + 20000)
    end = max(b.completions[-1] for b in chain.bindings.values())
    return chain, end


def test_measured_split_matches_analysis():
    etas, eps, R = (32, 16), 15, 500
    chain, end = run_saturated(etas, eps, R)
    measured = chain.utilization_breakdown(end)

    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=tuple(
            StreamSpec(f"s{i}", Fraction(1, 10**9), R, block_size=etas[i])
            for i in range(len(etas))
        ),
        entry_copy=eps,
        exit_copy=1,
    )
    predicted = analyze_utilization(system)

    # copy fraction within 15% relative of the analytical round split
    assert measured.copy == pytest.approx(
        float(predicted.gateway_copy_fraction), rel=0.15
    )
    # reconfiguration: the simulation only pays R on actual switches, the
    # analysis charges it per block — measured must not exceed predicted
    assert measured.reconfig <= float(predicted.reconfig_fraction) * 1.05


def test_measured_counters_consistent():
    etas, eps, R = (16, 16), 10, 200
    chain, end = run_saturated(etas, eps, R)
    # counters are cumulative since t=0: measure over the full sim span
    now = int(chain.entry.sim.now)
    m = chain.utilization_breakdown(now)
    samples = sum(b.samples_in for b in chain.bindings.values())
    assert samples == sum(e * 6 for e in etas)
    assert m.blocks_admitted == 12
    assert 0 <= m.poll <= 1
    data_transfer = samples / now  # 1 cycle/sample of movement
    assert data_transfer < m.copy  # ε > 1 cycle/sample


def test_utilization_requires_positive_horizon():
    etas, eps, R = (8,), 5, 50
    chain, _end = run_saturated(etas, eps, R, blocks=2)
    with pytest.raises(ValueError):
        chain.utilization_breakdown(0)


def test_wait_dominates_when_underloaded():
    """A gateway with nothing to do polls: poll fraction ≈ 1 over a long
    horizon after the work drains."""
    etas, eps, R = (8,), 5, 50
    chain, end = run_saturated(etas, eps, R, blocks=2)
    sim = chain.entry.sim
    long_horizon = max(10 * end, int(sim.now) * 10)
    # run further with no new work: the gateway just polls
    sim.run(until=long_horizon)
    m = chain.utilization_breakdown(long_horizon)
    assert m.poll > 0.7
