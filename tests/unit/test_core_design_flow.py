"""Unit tests for the one-call design flow."""

from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    run_design_flow,
    throughput_satisfied,
)
from tests.refilp import ilp_block_sizes


def system_of(mus, R=100, eps=10):
    return GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=tuple(StreamSpec(f"s{i}", mu, R) for i, mu in enumerate(mus)),
        entry_copy=eps,
        exit_copy=1,
    )


def test_flow_produces_feasible_verified_design():
    report = run_design_flow(system_of([Fraction(1, 60), Fraction(1, 200)]))
    assert report.ok
    assert throughput_satisfied(report.system)
    assert set(report.block_sizes) == {"s0", "s1"}


def test_flow_bounds_present_per_stream():
    report = run_design_flow(system_of([Fraction(1, 80)]))
    b = report.bounds["s0"]
    assert b["gamma"] >= b["tau"]
    assert b["latency"] > b["gamma"]


def test_flow_buffers_sized_and_summed():
    report = run_design_flow(system_of([Fraction(1, 80)]))
    assert "s0" in report.buffer_capacities
    caps = report.buffer_capacities["s0"]
    assert set(caps) == {"p2s", "s2c"}
    assert report.total_buffer == sum(caps.values())


def test_flow_skip_buffer_sizing():
    report = run_design_flow(system_of([Fraction(1, 80)]), size_buffers=False)
    assert report.buffer_capacities == {}
    assert report.total_buffer == 0


def test_flow_overload_raises():
    with pytest.raises(ParameterError, match="load"):
        run_design_flow(system_of([Fraction(1, 5), Fraction(1, 5)]))


def test_flow_bnb_never_worse():
    report = run_design_flow(system_of([Fraction(1, 70)]), buffer_bnb_radius=3)
    assert report.buffer_optimal is not None
    assert report.buffer_optimal_total <= report.total_buffer


def test_flow_backend_choice():
    """The flow's Algorithm-1 sizes are what either ILP backend finds."""
    system = system_of([Fraction(1, 90), Fraction(1, 150)])
    report = run_design_flow(system, size_buffers=False)
    for backend in ("scipy", "bnb"):
        assert ilp_block_sizes(system, backend=backend) == report.block_sizes


def test_flow_summary_renders():
    report = run_design_flow(system_of([Fraction(1, 90)]))
    text = report.summary()
    assert "design flow report" in text
    assert "PASS" in text
    assert "η=" in text
