"""Unit tests for per-stream runtime metrics (repro.sim.metrics)."""

from fractions import Fraction

import pytest

from repro.sim import (
    GatewayUtilization,
    StreamMetrics,
    gateway_utilization,
    metrics_table,
    stream_metrics,
)
from repro.sim.metrics import block_quantities


class FakeFifo:
    def __init__(self, name, high_water):
        self.name = name
        self.high_water = high_water


class FakeBinding:
    """Duck-typed stand-in for arch.gateway.StreamBinding."""

    def __init__(self, name="s", eta=4, admissions=(), completions=()):
        self.name = name
        self.eta = eta
        self.admissions = list(admissions)
        self.completions = list(completions)
        self.blocks_done = len(self.completions)
        self.samples_in = eta * len(self.admissions)
        self.samples_out = eta * len(self.completions)
        self.first_output_at = self.completions[0] if self.completions else None
        self.last_output_at = self.completions[-1] if self.completions else None
        self.in_fifo = FakeFifo(f"{name}.in", 7)
        self.out_fifo = FakeFifo(f"{name}.out", 3)


def test_stream_metrics_derivations():
    b = FakeBinding(eta=4, admissions=[10, 100, 210], completions=[50, 160, 260])
    m = stream_metrics(b)
    assert m.block_times == (40, 60, 50)
    assert m.waits == (50, 50)          # completion -> next admission
    assert m.turnarounds == (110, 100)  # completion -> completion
    assert m.worst_block_time == 60
    assert m.worst_wait == 50
    assert m.worst_turnaround == 110
    assert m.mean_block_time == pytest.approx(50.0)
    # 2 steady-state blocks of 4 samples over completions span 210
    assert m.throughput == Fraction(8, 210)
    assert m.in_high_water == 7 and m.out_high_water == 3


def test_block_quantities_ignore_a_block_in_flight():
    # block 2 was admitted at 70 but has not completed
    block_times, waits, turnarounds, throughput = block_quantities(
        4, [0, 30, 70], [20, 60]
    )
    assert block_times == (20, 30)
    assert waits == (10, 10)
    assert turnarounds == (40,)
    assert throughput == Fraction(4, 40)


def test_stream_metrics_single_block_no_throughput():
    m = stream_metrics(FakeBinding(admissions=[5], completions=[30]))
    assert m.throughput is None
    assert m.waits == () and m.turnarounds == ()
    assert m.worst_wait is None and m.mean_block_time == pytest.approx(25.0)


def test_stream_metrics_to_dict_json_friendly():
    import json

    b = FakeBinding(admissions=[0, 50], completions=[20, 80])
    d = stream_metrics(b).to_dict()
    json.dumps(d)  # must not raise (no Fractions/tuples of oddities)
    assert d["worst_block_time"] == 30
    assert d["throughput"] == pytest.approx(4 * 1 / 60)
    # the report's per-stream keys; a fault-free run has no "recovery"
    assert set(d) == {
        "name", "eta", "blocks_done", "samples_in", "samples_out",
        "worst_block_time", "mean_block_time", "worst_wait",
        "worst_turnaround", "throughput", "first_output_at",
        "last_output_at", "in_high_water", "out_high_water",
    }


class FakeEntry:
    copy_cycles = 300
    reconfig_cycles = 500
    wait_cycles = 100
    blocks_admitted = 6


def test_gateway_utilization_fractions():
    u = gateway_utilization(FakeEntry(), horizon=1000)
    assert isinstance(u, GatewayUtilization)
    assert u.copy == pytest.approx(0.3)
    assert u.reconfig == pytest.approx(0.5)
    assert u.poll == pytest.approx(0.1)
    assert u.other == pytest.approx(0.1)
    with pytest.raises(ValueError):
        gateway_utilization(FakeEntry(), horizon=0)


def test_metrics_table_renders_all_streams():
    ms = [
        stream_metrics(FakeBinding(name="a", admissions=[0, 50], completions=[20, 80])),
        stream_metrics(FakeBinding(name="b", admissions=[5], completions=[9])),
    ]
    table = metrics_table(ms)
    assert "a" in table and "b" in table
    lines = table.splitlines()
    assert len(lines) >= 4  # header, rule, one row per stream


def test_stream_metrics_is_frozen():
    m = stream_metrics(FakeBinding(admissions=[0], completions=[1]))
    with pytest.raises(AttributeError):
        m.eta = 99
    assert isinstance(m, StreamMetrics)
