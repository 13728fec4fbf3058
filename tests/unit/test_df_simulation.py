"""Unit tests for self-timed (C)SDF execution."""

import pytest

from repro.dataflow import (
    CSDFGraph,
    DeadlockError,
    GraphError,
    SDFGraph,
    execute,
)


def two_actor(prod=1, cons=1, tokens=0, da=1, db=1, back=None):
    g = SDFGraph("two")
    g.add_actor("A", da)
    g.add_actor("B", db)
    g.add_edge("A", "B", production=prod, consumption=cons, tokens=tokens, name="ch")
    if back is not None:
        g.add_edge("B", "A", production=cons, consumption=prod, tokens=back, name="back")
    return g


def test_execute_requires_stop_condition():
    with pytest.raises(GraphError):
        execute(two_actor())


def test_tokens_consumed_at_start_produced_at_end():
    g = two_actor(da=4, db=1)
    res = execute(g, iterations=1)
    a = res.firings_of("A")[0]
    b = res.firings_of("B")[0]
    assert (a.start, a.end) == (0, 4)
    # B can only start once A's token is produced at t=4
    assert b.start == 4
    assert b.end == 5


def test_source_actor_fires_back_to_back():
    g = two_actor(da=2, db=1, back=4)
    res = execute(g, iterations=3)
    starts = [f.start for f in res.firings_of("A")][:3]
    assert starts == [0, 2, 4]


def test_implicit_self_edge_prevents_overlap():
    g = two_actor(da=5, db=1, back=10)
    res = execute(g, iterations=2)
    firings = res.firings_of("A")
    assert firings[1].start >= firings[0].end


def test_iteration_counting_multirate():
    g = two_actor(prod=3, cons=1, back=6)
    res = execute(g, iterations=2)
    # q = {A:1, B:3} -> 2 iterations need >= 2 A firings, >= 6 B firings.
    # Self-timed execution may overshoot within the final event instant.
    assert res.completions["A"] >= 2
    assert res.completions["B"] >= 6
    assert res.iterations_completed >= 2


def test_deadlock_detected():
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")  # no initial tokens anywhere: nothing can fire
    res = execute(g, iterations=1)
    assert res.deadlocked
    assert res.completions == {"A": 0, "B": 0}


def test_deadlock_raises_when_forbidden():
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    with pytest.raises(DeadlockError):
        execute(g, iterations=1, allow_deadlock=False)


def test_cycle_with_token_rotates():
    g = SDFGraph("ring")
    g.add_actor("A", 2)
    g.add_actor("B", 3)
    g.add_edge("A", "B")
    g.add_edge("B", "A", tokens=1)
    res = execute(g, iterations=4)
    # strictly alternating: period 5
    a_starts = [f.start for f in res.firings_of("A")]
    assert a_starts == [0, 5, 10, 15]


def test_horizon_stops_execution():
    g = two_actor(da=2, db=2, back=2)
    res = execute(g, horizon=11)
    assert res.end_time >= 11
    assert res.completions["A"] >= 5


def test_token_state_deterministic_in_serialised_ring():
    # fully serialised ring: exact token state at the stopping instant
    g = SDFGraph("ring")
    g.add_actor("A", 2)
    g.add_actor("B", 3)
    g.add_edge("A", "B", name="ch")
    g.add_edge("B", "A", tokens=1, name="bwd")
    res = execute(g, iterations=1)
    # at t=5 B completed (bwd +1) and A immediately started (bwd -1, in flight)
    assert res.end_time == 5
    assert res.tokens == {"ch": 0, "bwd": 0}


def test_zero_duration_actor_fires_instantly():
    g = SDFGraph("z")
    g.add_actor("src", 3)
    g.add_actor("zero", 0)
    g.add_actor("sink", 1)
    g.add_edge("src", "zero", name="e1")
    g.add_edge("zero", "sink", name="e2")
    g.add_edge("sink", "src", tokens=2, name="e3")
    res = execute(g, iterations=2)
    z = res.firings_of("zero")[0]
    assert z.start == z.end == 3


def test_zero_delay_livelock_guard():
    g = SDFGraph("live")
    g.add_actor("A", 0)
    g.add_actor("B", 0)
    g.add_edge("A", "B", tokens=1)
    g.add_edge("B", "A", tokens=1)
    with pytest.raises(GraphError):
        execute(g, iterations=10)


def test_csdf_phases_cycle():
    g = CSDFGraph("c")
    g.add_actor("p", duration=[2, 1], phases=2)
    g.add_actor("s", duration=1)
    g.add_edge("p", "s", production=[1, 0], consumption=1, name="e")
    g.add_edge("s", "p", production=[1], consumption=[1, 0], tokens=2, name="b")
    res = execute(g, iterations=2)
    fp = res.firings_of("p")
    assert [f.phase for f in fp[:4]] == [0, 1, 0, 1]
    # phase durations alternate 2, 1
    assert fp[0].end - fp[0].start == 2
    assert fp[1].end - fp[1].start == 1


def test_csdf_zero_quantum_phase_consumes_nothing():
    g = CSDFGraph("c")
    g.add_actor("gate", duration=[1, 1], phases=2)
    g.add_actor("src", duration=5)
    # gate consumes only in phase 0
    g.add_edge("src", "gate", production=1, consumption=[1, 0], name="in")
    res = execute(g, horizon=12)
    fg = res.firings_of("gate")
    # phase 0 waits for src's token at t=5, phase 1 follows immediately
    assert fg[0].start == 5
    assert fg[1].start == 6


def test_production_times_reported():
    g = two_actor(da=2, db=3, back=2)
    res = execute(g, iterations=2)
    assert res.production_times("A")[0] == 2


def test_records_disabled():
    g = two_actor(back=2)
    res = execute(g, iterations=2, record=False)
    assert res.firings == []
    assert res.completions["A"] >= 2


def test_records_scoped_to_named_actors():
    g = two_actor(back=2)
    full = execute(g, iterations=1)
    res = execute(g, iterations=1, record=("A",))
    assert res.firings == full.firings_of("A")
    assert res.firings_of("A") == full.firings_of("A")
    assert res.production_times("A") == full.production_times("A")
    assert res.completions == full.completions
    # an actor outside the scope raises instead of answering []
    with pytest.raises(GraphError, match="'B' was not recorded"):
        res.firings_of("B")
    with pytest.raises(GraphError, match="'B' was not recorded"):
        res.production_times("B")


def test_records_true_and_false_unchanged_by_scoping():
    g = two_actor(back=2)
    assert {f.actor for f in execute(g, iterations=1, record=True).firings} == {"A", "B"}
    off = execute(g, iterations=1, record=False)
    assert off.firings == [] and off.firings_of("B") == []
