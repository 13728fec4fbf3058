"""Unit tests for exact state-space throughput analysis."""

from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    build_stream_sdf,
    compute_block_sizes,
    verify_with_sdf_model,
)
from repro.dataflow import (
    CSDFGraph,
    GraphError,
    SDFGraph,
    bound_channel,
    steady_state_throughput,
)


def bounded_pair(da, db, cap, prod=1, cons=1, tokens=0):
    g = SDFGraph("pair")
    g.add_actor("A", da)
    g.add_actor("B", db)
    g.add_edge("A", "B", production=prod, consumption=cons, tokens=tokens, name="ch")
    return bound_channel(g, "ch", cap)


def test_throughput_limited_by_slowest_actor():
    g = bounded_pair(2, 5, cap=4)
    r = steady_state_throughput(g, actor="B")
    assert r.firing_rate == Fraction(1, 5)
    assert not r.deadlocked


def test_throughput_limited_by_buffer():
    # capacity 1 serialises: period = da + db
    g = bounded_pair(2, 3, cap=1)
    r = steady_state_throughput(g, actor="B")
    assert r.firing_rate == Fraction(1, 5)


def test_throughput_multirate():
    g = bounded_pair(1, 1, cap=8, prod=4, cons=1)
    r = steady_state_throughput(g, actor="B")
    # B must fire 4x per A firing; both have duration 1; B is bottleneck
    assert r.firing_rate == Fraction(1, 1)
    rA = steady_state_throughput(g, actor="A")
    assert rA.firing_rate == Fraction(1, 4)


def test_iteration_rate_normalised():
    g = bounded_pair(1, 1, cap=8, prod=4, cons=1)
    rB = steady_state_throughput(g, actor="B")
    rA = steady_state_throughput(g, actor="A")
    assert rB.iteration_rate == rA.iteration_rate


def test_deadlocked_graph_reports_zero():
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    r = steady_state_throughput(g)
    assert r.deadlocked
    assert r.firing_rate == 0
    with pytest.raises(ZeroDivisionError):
        r.period_per_iteration


def test_unknown_actor_rejected():
    g = bounded_pair(1, 1, cap=2)
    with pytest.raises(GraphError):
        steady_state_throughput(g, actor="nope")


def test_unbounded_graph_aborts():
    g = SDFGraph("unbounded")
    g.add_actor("A", 1)
    g.add_actor("B", 5)
    g.add_edge("A", "B")  # tokens pile up forever
    with pytest.raises(GraphError):
        steady_state_throughput(g, actor="A", max_steps=500)


def test_recurrence_past_a_million_steps_gets_a_verdict():
    """Two streams at load 0.99997 (ε = 15, one ρ = 1 accelerator, R = 100,
    3,333,233 samples/s each at 100 MHz): Algorithm 1 gives η = 287,921, and
    the Fig. 7 model, bounded by its α0/α3 back-edges, first recurs 4η steps
    in, past the default ``max_steps`` of 10**6.  ``max_steps`` bounds the
    instants stepped, not the ones jumps replay, so Eq. 5 gets its verdict."""
    mu = Fraction(3_333_233, 100_000_000)
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=tuple(StreamSpec(name, mu, 100) for name in ("x", "y")),
        entry_copy=15,
        exit_copy=1,
    )
    sized = system.with_block_sizes(compute_block_sizes(system).block_sizes)
    assert sized.stream("x").block_size == 287_921
    r = steady_state_throughput(build_stream_sdf(sized, "x"), actor="vC")
    assert r.firing_rate == mu
    assert (r.transient_steps, r.firings_per_period) == (575_842, 287_921)
    assert verify_with_sdf_model(sized, "x") == (True, mu)


def test_period_and_count_consistent():
    g = bounded_pair(3, 4, cap=3)
    r = steady_state_throughput(g, actor="B")
    assert r.firing_rate == Fraction(r.firings_per_period) / r.period


def test_csdf_gateway_like_throughput():
    """A CSDF 'gateway' that forwards eta samples then pauses (reconfig)."""
    eta, reconf, copy = 4, 10, 2
    g = CSDFGraph("gwlike")
    g.add_actor("gw", duration=[reconf + copy] + [copy] * (eta - 1), phases=eta)
    g.add_actor("sink", duration=1)
    g.add_edge("gw", "sink", production=1, consumption=1, name="out")
    gb = bound_channel(g, "out", 2 * eta)
    r = steady_state_throughput(gb, actor="sink")
    # gw produces eta tokens per (reconf + eta*copy) time
    assert r.firing_rate == Fraction(eta, reconf + eta * copy)


def test_transient_then_periodic():
    # initial tokens create a transient before the periodic regime
    g = SDFGraph("tr")
    g.add_actor("A", 2)
    g.add_actor("B", 3)
    g.add_edge("A", "B", tokens=5, name="ch")
    gb = bound_channel(g, "ch", 7)
    r = steady_state_throughput(gb, actor="B")
    assert r.firing_rate == Fraction(1, 3)


def test_period_per_iteration():
    g = bounded_pair(2, 2, cap=4)
    r = steady_state_throughput(g, actor="A")
    assert r.period_per_iteration == 2
