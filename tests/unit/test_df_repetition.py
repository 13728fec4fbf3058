"""Unit tests for repetition vectors and consistency."""

import pytest

from repro.dataflow import (
    CSDFGraph,
    GraphError,
    SDFGraph,
    firing_repetition_vector,
    is_consistent,
    repetition_vector,
)


def chain(rates):
    """Build a chain a0 -> a1 -> ... with (prod, cons) rate pairs."""
    g = SDFGraph("chain")
    n = len(rates) + 1
    for i in range(n):
        g.add_actor(f"a{i}", 1)
    for i, (p, c) in enumerate(rates):
        g.add_edge(f"a{i}", f"a{i+1}", production=p, consumption=c, name=f"e{i}")
    return g


def test_homogeneous_chain():
    g = chain([(1, 1), (1, 1)])
    assert repetition_vector(g) == {"a0": 1, "a1": 1, "a2": 1}


def test_multirate_chain():
    g = chain([(2, 3)])
    assert repetition_vector(g) == {"a0": 3, "a1": 2}


def test_downsampler_chain_ratio_8_to_1():
    # the paper's LPF+down-sampler: 8 in, 1 out
    g = chain([(1, 8), (1, 1)])
    q = repetition_vector(g)
    assert q["a0"] == 8 * q["a1"]
    assert q["a1"] == q["a2"]


def test_smallest_solution_is_coprime():
    g = chain([(4, 6)])
    assert repetition_vector(g) == {"a0": 3, "a1": 2}


def test_inconsistent_cycle_detected():
    g = SDFGraph()
    g.add_actor("a", 1)
    g.add_actor("b", 1)
    g.add_edge("a", "b", production=2, consumption=1)
    g.add_edge("b", "a", production=2, consumption=1)  # demands q_a = 4 q_a
    with pytest.raises(GraphError):
        repetition_vector(g)
    assert not is_consistent(g)


def test_parallel_edges_must_agree():
    g = SDFGraph()
    g.add_actor("a", 1)
    g.add_actor("b", 1)
    g.add_edge("a", "b", production=1, consumption=1, name="e1")
    g.add_edge("a", "b", production=2, consumption=1, name="e2")
    with pytest.raises(GraphError):
        repetition_vector(g)


def test_disconnected_components_each_normalised():
    g = SDFGraph()
    for n in ("a", "b", "c", "d"):
        g.add_actor(n, 1)
    g.add_edge("a", "b", production=2, consumption=1)
    g.add_edge("c", "d", production=1, consumption=3)
    q = repetition_vector(g)
    assert q["b"] == 2 * q["a"]
    assert q["c"] == 3 * q["d"]


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        repetition_vector(SDFGraph())


def test_csdf_repetition_counts_cycles():
    g = CSDFGraph()
    g.add_actor("p", duration=[1, 1], phases=2)
    g.add_actor("c", duration=1)
    # per cycle: p produces 3, c consumes 1 -> q = {p:1, c:3}
    g.add_edge("p", "c", production=[2, 1], consumption=1)
    assert repetition_vector(g) == {"p": 1, "c": 3}
    # firings: p has 2 phases
    assert firing_repetition_vector(g) == {"p": 2, "c": 3}


def test_self_edge_consistency():
    g = SDFGraph()
    g.add_actor("a", 1)
    g.add_edge("a", "a", tokens=1)
    assert repetition_vector(g) == {"a": 1}


def test_isolated_actor_gets_repetition_one():
    g = SDFGraph()
    g.add_actor("a", 1)
    g.add_actor("b", 1)
    g.add_edge("a", "b", production=5, consumption=1)
    g.add_actor("lonely", 1)
    q = repetition_vector(g)
    assert q["lonely"] >= 1
