"""Unit tests for HSDF expansion and MCM analysis."""

from fractions import Fraction

import pytest

from repro.dataflow import (
    CSDFGraph,
    GraphError,
    SDFGraph,
    bound_channel,
    expand_to_hsdf,
    firing_repetition_vector,
    hsdf_node,
    max_cycle_ratio,
    mcm_throughput,
    steady_state_throughput,
)


def test_hsdf_node_naming():
    assert hsdf_node("A", 2) == "A#2"


def test_expansion_node_count_matches_repetitions():
    g = SDFGraph("m")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=3, consumption=2, name="ch")
    h = expand_to_hsdf(g)
    reps = firing_repetition_vector(g)
    assert len(h.actors) == sum(reps.values())  # 2 + 3


def test_expansion_all_unit_rates():
    g = SDFGraph("m")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=2, consumption=3, tokens=1)
    h = expand_to_hsdf(g)
    for e in h.edges.values():
        assert e.total_production == 1
        assert e.total_consumption == 1


def test_expansion_preserves_initial_token_total_on_self_edges():
    g = SDFGraph("m")
    g.add_actor("A", 1)
    h = expand_to_hsdf(g)
    # single firing -> self edge with one token
    assert h.edge("self:A").tokens == 1


def test_expansion_initial_tokens_shift_dependencies():
    g = SDFGraph("m")
    g.add_actor("A", 2)
    g.add_actor("B", 3)
    g.add_edge("A", "B", tokens=1, name="ch")
    h = expand_to_hsdf(g)
    # B#0 consumes the initial token: depends on A's firing of a previous
    # iteration => edge with 1 initial token
    dep_edges = [e for e in h.edges.values() if e.dst == "B#0" and e.src.startswith("A")]
    assert len(dep_edges) == 1
    assert dep_edges[0].tokens == 1


def test_expansion_rejects_future_dependency_never_happens_for_consistent():
    # any consistent graph must expand fine
    g = SDFGraph("m")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=6, consumption=4, tokens=2)
    h = expand_to_hsdf(g)
    assert len(h.actors) == 2 + 3


def test_csdf_expansion_phase_durations():
    g = CSDFGraph("c")
    g.add_actor("p", duration=[5, 7], phases=2)
    g.add_actor("s", duration=1)
    g.add_edge("p", "s", production=[1, 1], consumption=1)
    h = expand_to_hsdf(g)
    assert h.actor("p#0").duration == (5.0,)
    assert h.actor("p#1").duration == (7.0,)


def test_mcr_simple_ring():
    h = SDFGraph("h")
    h.add_actor("A", 2)
    h.add_actor("B", 3)
    h.add_edge("A", "B", tokens=0)
    h.add_edge("B", "A", tokens=1)
    res = max_cycle_ratio(h)
    assert res.ratio == Fraction(5, 1)
    assert set(res.cycle) == {"A", "B"}


def test_mcr_two_token_ring():
    h = SDFGraph("h")
    h.add_actor("A", 2)
    h.add_actor("B", 3)
    h.add_edge("A", "B", tokens=1)
    h.add_edge("B", "A", tokens=1)
    res = max_cycle_ratio(h)
    # ring has 2 tokens: ratio 5/2; but self-concurrency isn't modelled here
    # (plain graph, no self-edges), so the cycle ratio is exactly 5/2
    assert res.ratio == Fraction(5, 2)


def test_mcr_picks_critical_cycle():
    h = SDFGraph("h")
    for n, d in (("A", 1), ("B", 10), ("C", 1)):
        h.add_actor(n, d)
    h.add_edge("A", "A", tokens=1, name="sa")
    h.add_edge("B", "B", tokens=1, name="sb")
    h.add_edge("C", "C", tokens=1, name="sc")
    res = max_cycle_ratio(h)
    assert res.ratio == Fraction(10)
    assert res.cycle == ["B"]


def test_mcr_rejects_multirate():
    g = SDFGraph("g")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=2)
    with pytest.raises(GraphError):
        max_cycle_ratio(g)


def test_mcr_zero_token_cycle_rejected():
    h = SDFGraph("h")
    h.add_actor("A", 1)
    h.add_actor("B", 1)
    h.add_edge("A", "B", tokens=0)
    h.add_edge("B", "A", tokens=0)
    with pytest.raises(GraphError):
        max_cycle_ratio(h)


def test_mcr_empty_graph_zero():
    h = SDFGraph("h")
    h.add_actor("A", 1)
    res = max_cycle_ratio(h)
    assert res.ratio == 0


def test_mcm_throughput_matches_statespace_homogeneous():
    g = SDFGraph("g")
    g.add_actor("A", 4)
    g.add_actor("B", 6)
    g.add_edge("A", "B", name="ch")
    gb = bound_channel(g, "ch", 3)
    assert mcm_throughput(gb, "B") == steady_state_throughput(gb, actor="B").firing_rate


def test_mcm_throughput_matches_statespace_multirate():
    g = SDFGraph("g")
    g.add_actor("A", 3)
    g.add_actor("B", 2)
    g.add_edge("A", "B", production=2, consumption=1, name="ch")
    gb = bound_channel(g, "ch", 4)
    assert mcm_throughput(gb, "B") == steady_state_throughput(gb, actor="B").firing_rate


def test_mcm_throughput_matches_statespace_csdf():
    g = CSDFGraph("c")
    g.add_actor("p", duration=[1, 3], phases=2)
    g.add_actor("s", duration=2)
    g.add_edge("p", "s", production=[2, 1], consumption=1, name="ch")
    gb = bound_channel(g, "ch", 5)
    assert mcm_throughput(gb, "s") == steady_state_throughput(gb, actor="s").firing_rate


def test_mcm_throughput_exact_on_fig7_model_at_pal_stage2_rate():
    # Fig. 7 abstraction at the PAL stage-2 rate: producer and consumer fire
    # every 1/mu cycles, so the MCM ratio has the denominator of 1/mu, far
    # beyond the token count that bounds it for integer durations
    mu = Fraction(44156007, 12500000000)
    eta = 5
    g = SDFGraph("fig7")
    g.add_actor("vP", 1 / mu)
    g.add_actor("vS", 1400)
    g.add_actor("vC", 1 / mu)
    g.add_edge("vP", "vS", production=1, consumption=eta, name="p2s")
    g.add_edge("vS", "vC", production=eta, consumption=1, name="s2c")
    g = bound_channel(bound_channel(g, "p2s", 2 * eta), "s2c", 2 * eta)
    assert mcm_throughput(g, "vC") == mu
    assert steady_state_throughput(g, actor="vC").firing_rate == mu
