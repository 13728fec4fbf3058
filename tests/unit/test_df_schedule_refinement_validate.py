"""Unit tests for schedules, refinement checks and graph validation."""

from fractions import Fraction

import pytest

from repro.dataflow import (
    DeadlockError,
    SDFGraph,
    admissible_schedule,
    check_liveness,
    execute,
    is_consistent,
    refines_times,
    validate_graph,
)


def ring(da=2, db=3, tokens=1):
    g = SDFGraph("ring")
    g.add_actor("A", da)
    g.add_actor("B", db)
    g.add_edge("A", "B", name="fwd")
    g.add_edge("B", "A", tokens=tokens, name="bwd")
    return g


# ------------------------------------------------------------------ schedule
def test_schedule_makespan():
    s = admissible_schedule(ring(), iterations=2)
    assert s.makespan == 10  # period 5, two iterations


def test_schedule_start_end_accessors():
    s = admissible_schedule(ring(), iterations=2)
    assert s.start_of("A", 0) == 0
    assert s.end_of("A", 0) == 2
    assert s.start_of("B", 0) == 2
    assert s.completion_time("B") == 10


def test_schedule_rows_and_render():
    s = admissible_schedule(ring(), iterations=1)
    rows = s.actor_rows()
    assert {r.resource for r in rows} == {"A", "B"}
    out = s.render(width=30)
    assert "makespan" in out
    assert "A" in out


def test_schedule_deadlock_raises():
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    with pytest.raises(DeadlockError):
        admissible_schedule(g)


# ---------------------------------------------------------------- refinement
def test_refines_times_holds():
    assert refines_times([1, 2, 3], [1, 2, 4])
    assert refines_times([1, 2, 3], [1, 2, 3])


def test_refines_times_violation_located():
    rep = refines_times([1, 5, 3], [1, 2, 4])
    assert not rep
    assert rep.first_violation == 1
    assert rep.refined_time == 5
    assert rep.abstract_time == 2


def test_refines_times_refinement_may_produce_more():
    assert refines_times([1, 2, 3, 4], [2, 3])


def test_refines_times_missing_production_fails():
    rep = refines_times([1], [1, 2])
    assert not rep
    assert rep.first_violation == 1


def refines_actor_by_actor(refined, abstract, actors):
    """Each actor's productions in ``refined`` no later than in ``abstract``."""
    return all(refines_times(refined.production_times(a), abstract.production_times(a))
               for a in actors)


def test_refinement_checks_are_exact_by_default():
    late = Fraction(1, 10**12)  # far below the old 1e-9 default slack
    rep = refines_times([1, 2 + late, 3], [1, 2, 3])
    assert not rep
    assert rep.first_violation == 1 and rep.refined_time == 2 + late
    slower = execute(ring(da=2 + late, db=3), iterations=3)
    assert not refines_actor_by_actor(slower, execute(ring(), iterations=3), ["A"])


def test_fast_graph_refines_slow_graph_actor_by_actor():
    fast = execute(ring(da=1, db=2), iterations=3)
    slow = execute(ring(da=2, db=3), iterations=3)
    assert refines_actor_by_actor(fast, slow, ["A", "B"])
    assert not refines_actor_by_actor(slow, fast, ["A", "B"])


# ------------------------------------------------------------------ validate
def test_validate_ok_graph():
    rep = validate_graph(ring())
    assert rep.ok
    assert rep.errors == []


def test_validate_inconsistent():
    g = SDFGraph("bad")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=2, consumption=1)
    g.add_edge("B", "A", production=2, consumption=1)
    rep = validate_graph(g)
    assert not rep.ok
    assert "inconsistent" in rep.errors[0]


def test_validate_deadlock():
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    rep = validate_graph(g)
    assert not rep.ok
    assert any("deadlock" in e for e in rep.errors)


def test_validate_warns_disconnected():
    g = ring()
    g.add_actor("lonely", 1)
    rep = validate_graph(g)
    assert rep.ok
    assert any("disconnected" in w for w in rep.warnings)


def test_validate_warns_zero_duration():
    g = ring(da=0)
    rep = validate_graph(g)
    assert any("zero total firing duration" in w for w in rep.warnings)


def test_validate_empty():
    rep = validate_graph(SDFGraph())
    assert not rep.ok


def test_liveness_helpers():
    assert is_consistent(ring()) and check_liveness(ring())
    g = SDFGraph("dead")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    assert is_consistent(g) and not check_liveness(g)
