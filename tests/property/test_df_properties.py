"""Property-based tests for the dataflow substrate.

The invariants checked here are the load-bearing ones for the paper's
analysis chain:

* balance equations hold for computed repetition vectors,
* the two independent throughput engines (state-space execution and
  MCM-on-HSDF) agree exactly,
* throughput is monotone in buffer capacity (the property that makes the
  buffer-minimisation scans correct),
* self-timed execution respects enabling (no actor fires early) and the
  implicit self-edge (no overlapping firings),
* a faster actor refines a slower one (productions never get later).
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    SDFGraph,
    CSDFGraph,
    bound_channel,
    execute,
    firing_repetition_vector,
    mcm_throughput,
    refines_times,
    repetition_vector,
    steady_state_throughput,
)

rate = st.integers(min_value=1, max_value=4)
duration = st.integers(min_value=1, max_value=6)
#: exact non-integer durations such as 8/7: the MCM's denominator is then no
#: longer bounded by the token count alone
fraction_duration = st.builds(
    Fraction, st.integers(min_value=1, max_value=48), st.integers(min_value=2, max_value=8)
)
capacity_extra = st.integers(min_value=0, max_value=4)


@st.composite
def bounded_chain(draw, max_len=3, durations=duration):
    """A chain of actors with bounded channels (always consistent & live)."""
    n = draw(st.integers(min_value=2, max_value=max_len))
    g = SDFGraph("chain")
    for i in range(n):
        g.add_actor(f"a{i}", draw(durations))
    chans = []
    for i in range(n - 1):
        p, c = draw(rate), draw(rate)
        g.add_edge(f"a{i}", f"a{i+1}", production=p, consumption=c, name=f"e{i}")
        chans.append((f"e{i}", p, c))
    for name, p, c in chans:
        # p + c - gcd(p, c) is the classical deadlock-free minimum capacity
        lower = p + c - gcd(p, c)
        g = bound_channel(g, name, lower + draw(capacity_extra))
    return g


@given(bounded_chain())
@settings(max_examples=40, deadline=None)
def test_balance_equations_hold(g):
    q = repetition_vector(g)
    for e in g.edges.values():
        assert q[e.src] * e.total_production == q[e.dst] * e.total_consumption


@given(bounded_chain(durations=duration | fraction_duration))
@settings(max_examples=25, deadline=None)
def test_statespace_equals_mcm(g):
    ref = sorted(g.actors)[0]
    ss = steady_state_throughput(g, actor=ref)
    assert not ss.deadlocked
    assert ss.firing_rate == mcm_throughput(g, ref)


@given(bounded_chain(max_len=2), st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_throughput_monotone_in_extra_capacity(g, extra):
    ref = sorted(g.actors)[0]
    base = steady_state_throughput(g, actor=ref).firing_rate
    # widen every capacity back-edge
    overrides = {
        name: e.tokens + extra for name, e in g.edges.items() if name.startswith("cap:")
    }
    wider = g.with_edge_tokens(overrides)
    assert steady_state_throughput(wider, actor=ref).firing_rate >= base


@given(bounded_chain())
@settings(max_examples=25, deadline=None)
def test_no_overlapping_firings_per_actor(g):
    res = execute(g, iterations=2)
    for actor in g.actors:
        firings = res.firings_of(actor)
        for f1, f2 in zip(firings, firings[1:]):
            assert f2.start >= f1.end


@given(bounded_chain())
@settings(max_examples=25, deadline=None)
def test_firing_counts_scale_with_repetition_vector(g):
    reps = firing_repetition_vector(g)
    res = execute(g, iterations=3)
    for actor in g.actors:
        assert res.completions[actor] >= 3 * reps[actor]


@st.composite
def csdf_pair(draw):
    """A bounded CSDF producer/consumer pair with random phases."""
    phases = draw(st.integers(min_value=1, max_value=3))
    durs = [draw(duration) for _ in range(phases)]
    prods = [draw(st.integers(min_value=0, max_value=3)) for _ in range(phases)]
    if sum(prods) == 0:
        prods[0] = 1
    g = CSDFGraph("cp")
    g.add_actor("p", duration=durs, phases=phases)
    g.add_actor("c", duration=draw(duration))
    g.add_edge("p", "c", production=prods, consumption=1, name="ch")
    cap = max(prods) + draw(capacity_extra) + 1
    return bound_channel(g, "ch", cap)


@given(csdf_pair())
@settings(max_examples=25, deadline=None)
def test_csdf_statespace_equals_mcm(g):
    ss = steady_state_throughput(g, actor="c")
    assert ss.firing_rate == mcm_throughput(g, "c")


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_faster_actor_refines_slower(da, db):
    def mk(d):
        g = SDFGraph("r")
        g.add_actor("A", d)
        g.add_actor("B", 2)
        g.add_edge("A", "B", name="f")
        g.add_edge("B", "A", tokens=2, name="b")
        return g

    fast = execute(mk(min(da, db)), iterations=3)
    slow = execute(mk(max(da, db)), iterations=3)
    for actor in ("A", "B"):
        assert refines_times(fast.production_times(actor), slow.production_times(actor))


@given(bounded_chain())
@settings(max_examples=20, deadline=None)
def test_throughput_rate_is_positive_fraction(g):
    r = steady_state_throughput(g, actor=sorted(g.actors)[0])
    assert isinstance(r.firing_rate, Fraction)
    assert r.firing_rate > 0
