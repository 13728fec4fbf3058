"""Unit tests for the entry/exit gateway protocol."""

from fractions import Fraction

import pytest

from repro.accel import FirDecimatorKernel, MixerKernel
from repro.arch import GatewayError, MPSoC, StreamBinding, TaskSpec
from repro.arch import Get, Put


def build_soc(etas=(4, 4), kernels=None, entry_copy=3, exit_copy=1,
              reconfigure=20, in_cap=64, out_cap=64):
    """Two producer streams through one shared chain to one consumer tile."""
    kernels = kernels or [MixerKernel(0.0)]
    soc = MPSoC(n_stations=6 + len(kernels))
    prod = soc.add_processor("prod")
    cons = soc.add_processor("cons")
    entry_station = 2  # next claimed station inside shared_chain
    in_fifos = [prod.fifo_to(entry_station, capacity=in_cap, name=f"in{i}")
                for i in range(len(etas))]
    exit_station = 2 + 1 + len(kernels)
    out_fifos = [soc.software_fifo(exit_station, cons, capacity=out_cap, name=f"out{i}")
                 for i in range(len(etas))]
    configs = []
    for i, eta in enumerate(etas):
        states = []
        for k in kernels:
            st = k.get_state()
            if "freq_over_fs" in st:
                st = dict(st, freq_over_fs=0.0, phase=0.0)
            states.append(st)
        configs.append({
            "name": f"s{i}", "eta": eta, "in_fifo": in_fifos[i],
            "out_fifo": out_fifos[i], "states": states,
            "reconfigure_cycles": reconfigure,
        })
    chain = soc.shared_chain("gw", kernels, configs,
                             entry_copy=entry_copy, exit_copy=exit_copy)
    return soc, prod, cons, in_fifos, out_fifos, chain


def test_binding_validation():
    soc, *_rest = build_soc()
    fifo = soc.software_fifo(0, 1, 4, "f")
    with pytest.raises(GatewayError):
        StreamBinding("x", 0, fifo, fifo, [])
    with pytest.raises(GatewayError):
        StreamBinding("x", 3, fifo, fifo, [], output_ratio=Fraction(1, 2))


def test_expected_out_with_decimation():
    soc, *_ = build_soc()
    fifo = soc.software_fifo(0, 1, 4, "g")
    b = StreamBinding("x", 8, fifo, fifo, [], output_ratio=Fraction(1, 8))
    assert b.expected_out == 1


def test_blocks_multiplexed_round_robin():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(etas=(4, 4))
    got0, got1 = [], []

    def producer():
        for i in range(12):
            yield Put(in0, float(i))
            yield Put(in1, float(i))

    def consumer():
        for _ in range(12):
            got0.append((yield Get(out0)))
            got1.append((yield Get(out1)))

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    assert len(got0) == 12 and len(got1) == 12
    assert chain.binding("s0").blocks_done == 3
    assert chain.binding("s1").blocks_done == 3
    # round-robin: admissions interleave
    adm0 = chain.binding("s0").admissions
    adm1 = chain.binding("s1").admissions
    assert adm0[0] < adm1[0] < adm0[1] < adm1[1]


def test_block_quota_caps_admissions_and_fires_the_exit_hook_once():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(etas=(4, 4))
    s0, s1 = chain.binding("s0"), chain.binding("s1")
    s0.block_quota = 2
    reached = []
    chain.exit.on_quota = lambda b: reached.append((b.name, soc.sim.now))

    def producer():
        for i in range(12):
            yield Put(in0, float(i))
            yield Put(in1, float(i))

    def consumer():
        for _ in range(12):
            yield Get(out1)

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    # s0 stops at its quota with a block's words still waiting
    assert len(s0.admissions) == s0.blocks_done == 2
    assert in0.consumer_available == 4
    assert s1.blocks_done == 3  # no quota: every block it was fed
    assert reached == [("s0", s0.completions[-1])]


def test_block_not_admitted_without_full_block():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(etas=(4, 4))

    def producer():
        for i in range(3):  # one short of a block
            yield Put(in0, float(i))

    prod.add_task(TaskSpec("p", producer))
    prod.start()
    soc.run(until=5000)
    assert chain.binding("s0").blocks_done == 0
    assert chain.entry.blocks_admitted == 0


def test_space_check_blocks_admission():
    """With a tiny output buffer the entry-gateway must not admit a block."""
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(
        etas=(4, 4), out_cap=2,
    )

    def producer():
        for i in range(4):
            yield Put(in0, float(i))

    prod.add_task(TaskSpec("p", producer))
    prod.start()
    soc.run(until=5000)
    # a full block is queued but only 2 output spaces exist < η=4
    assert chain.binding("s0").blocks_done == 0


def test_space_check_uses_output_block_size_with_decimation():
    """η=8 inputs through an 8:1 decimator need only 1 output space."""
    soc, prod, cons, (in0,), (out0,), chain = build_soc(
        etas=(8,), kernels=[FirDecimatorKernel(factor=8)], out_cap=1,
    )

    def producer():
        for i in range(8):
            yield Put(in0, 1.0)

    prod.add_task(TaskSpec("p", producer))
    prod.start()
    soc.run(until=10000)
    assert chain.binding("s0").blocks_done == 1
    assert chain.binding("s0").samples_out == 1


def test_pipeline_idle_enforced_between_blocks():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(etas=(4, 4))

    def producer():
        for i in range(8):
            yield Put(in0, float(i))

    def consumer():
        for _ in range(8):
            yield Get(out0)

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    b = chain.binding("s0")
    assert b.blocks_done == 2
    # second admission strictly after first completion (idle token)
    assert b.admissions[1] >= b.completions[0]


def test_reconfiguration_skipped_for_same_stream():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(
        etas=(4, 4), reconfigure=500,
    )

    def producer():
        for i in range(8):  # two blocks, only stream 0
            yield Put(in0, float(i))

    def consumer():
        for _ in range(8):
            yield Get(out0)

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    assert chain.binding("s0").blocks_done == 2
    # only the first block pays the context switch
    assert chain.entry.reconfig_cycles == 500


def test_context_isolated_between_streams():
    """Each stream must see its own mixer phase despite sharing the tile."""
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(etas=(2, 2))
    # give the two streams different mixer configurations
    chain.binding("s0").states[0] = {"freq_over_fs": 0.25, "phase": 0.0}
    chain.binding("s1").states[0] = {"freq_over_fs": 0.0, "phase": 0.0}
    got0, got1 = [], []

    def producer():
        for i in range(4):
            yield Put(in0, 1.0)
            yield Put(in1, 1.0)

    def consumer():
        for _ in range(4):
            got0.append((yield Get(out0)))
            got1.append((yield Get(out1)))

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    # stream 1: identity mixing (freq 0) -> all ones
    assert all(abs(g - 1.0) < 1e-3 for g in got1)
    # stream 0: rotation by 0.25 turns/sample -> 1, -j, -1, j
    expected = [1, -1j, -1, 1j]
    assert all(abs(g - e) < 1e-3 for g, e in zip(got0, expected))


def test_gateway_counters_accumulate():
    soc, prod, cons, (in0, in1), (out0, out1), chain = build_soc(
        etas=(4, 4), entry_copy=3, reconfigure=20,
    )

    def producer():
        for i in range(4):
            yield Put(in0, float(i))

    def consumer():
        for _ in range(4):
            yield Get(out0)

    prod.add_task(TaskSpec("p", producer))
    cons.add_task(TaskSpec("c", consumer))
    prod.start(); cons.start()
    soc.run(until=30000)
    assert chain.entry.blocks_admitted == 1
    assert chain.entry.copy_cycles >= 4 * 3  # η·ε at least
    assert chain.entry.reconfig_cycles == 20
    assert chain.exit.samples_forwarded == 4


def test_binding_context_count_validated():
    soc = MPSoC(n_stations=8)
    fifo = soc.software_fifo(0, 1, 8, "f")
    with pytest.raises(GatewayError):
        soc.shared_chain(
            "gw", [MixerKernel(0.0)],
            [{"name": "s", "eta": 2, "in_fifo": fifo, "out_fifo": fifo,
              "states": [{}, {}]}],  # two contexts for one kernel
        )
