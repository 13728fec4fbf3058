"""Unit tests for the (C)SDF graph data model."""

import pytest

from repro.dataflow import Actor, CSDFGraph, GraphError, SDFGraph


def test_actor_make_scalar_duration():
    a = Actor.make("x", 5)
    assert a.phases == 1
    assert a.duration == (5.0,)
    assert a.is_sdf


def test_actor_make_per_phase_durations():
    a = Actor.make("x", [1, 2, 3])
    assert a.phases == 3
    assert a.total_duration == 6
    assert a.max_duration == 3
    assert not a.is_sdf


def test_actor_phase_duration_mismatch():
    with pytest.raises(GraphError):
        Actor.make("x", [1, 2], phases=3)


def test_actor_negative_duration_rejected():
    with pytest.raises(GraphError):
        Actor.make("x", -1)


def test_actor_zero_phases_rejected():
    with pytest.raises(GraphError):
        Actor("x", (), 0)


def test_add_duplicate_actor_rejected():
    g = CSDFGraph()
    g.add_actor("a")
    with pytest.raises(GraphError):
        g.add_actor("a")


def test_add_edge_unknown_actor_rejected():
    g = CSDFGraph()
    g.add_actor("a")
    with pytest.raises(GraphError):
        g.add_edge("a", "nope")
    with pytest.raises(GraphError):
        g.add_edge("nope", "a")


def test_edge_quanta_phase_length_checked():
    g = CSDFGraph()
    g.add_actor("a", duration=[1, 1], phases=2)
    g.add_actor("b")
    with pytest.raises(GraphError):
        g.add_edge("a", "b", production=[1, 2, 3])


def test_edge_zero_total_production_rejected():
    g = CSDFGraph()
    g.add_actor("a", duration=[1, 1], phases=2)
    g.add_actor("b")
    with pytest.raises(GraphError):
        g.add_edge("a", "b", production=[0, 0])


def test_edge_negative_tokens_rejected():
    g = CSDFGraph()
    g.add_actor("a")
    g.add_actor("b")
    with pytest.raises(GraphError):
        g.add_edge("a", "b", tokens=-1)


def test_edge_totals():
    g = CSDFGraph()
    g.add_actor("a", duration=[1, 1], phases=2)
    g.add_actor("b")
    e = g.add_edge("a", "b", production=[2, 3], consumption=1)
    assert e.total_production == 5
    assert e.total_consumption == 1


def test_in_out_edges():
    g = CSDFGraph()
    for n in "abc":
        g.add_actor(n)
    g.add_edge("a", "b", name="ab")
    g.add_edge("b", "c", name="bc")
    assert [e.name for e in g.out_edges("b")] == ["bc"]
    assert [e.name for e in g.in_edges("b")] == ["ab"]


def test_with_edge_tokens_copies():
    g = CSDFGraph()
    g.add_actor("a")
    g.add_actor("b")
    g.add_edge("a", "b", tokens=1, name="e")
    g2 = g.with_edge_tokens({"e": 7})
    assert g.edge("e").tokens == 1
    assert g2.edge("e").tokens == 7


def test_with_edge_tokens_unknown_edge_rejected():
    g = CSDFGraph()
    g.add_actor("a")
    with pytest.raises(GraphError):
        g.with_edge_tokens({"nope": 1})


def test_unknown_actor_and_edge_lookup():
    g = CSDFGraph()
    with pytest.raises(GraphError):
        g.actor("x")
    with pytest.raises(GraphError):
        g.edge("x")


def test_is_sdf_flag():
    g = CSDFGraph()
    g.add_actor("a")
    assert g.is_sdf
    g.add_actor("b", duration=[1, 2], phases=2)
    assert not g.is_sdf


def test_undirected_components():
    g = CSDFGraph()
    for n in "abcd":
        g.add_actor(n)
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    comps = g.undirected_components()
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]


def test_sdfgraph_rejects_phases():
    g = SDFGraph()
    with pytest.raises(GraphError):
        g.add_actor("a", duration=[1, 2])
    with pytest.raises(GraphError):
        g.add_actor("a", duration=1, phases=2)


def test_len_and_iter():
    g = CSDFGraph()
    g.add_actor("a")
    g.add_actor("b")
    assert len(g) == 2
    assert {a.name for a in g} == {"a", "b"}
