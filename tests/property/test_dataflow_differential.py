"""Differential testing: self-timed engine vs the frozen reference engine.

``tests/refdataflow.py`` is a verbatim copy of the engine, ``execute`` and
the ``steady_state_throughput`` loop from before the integer-tick, dirty-set
rewrite (DESIGN.md §11), kept as an executable specification.  These
properties run random consistent (C)SDF graphs — multi-phase actors; int,
float and Fraction durations, mixed; zero-duration chains; deadlocks and
zero-delay livelocks — through both and require every observable result to
be equal (``==``): firing records, completions, tokens, end time, iteration
count and deadlock flag of ``execute`` under iteration and horizon stops
with recording on, off and scoped to named actors or to phases of them
(compared with the reference's full records of those (actor, phase)
pairs), the whole ``ThroughputResult``,
and the errors raised.  Any divergence is a bug in the new engine, because the reference
defines the semantics.

Fraction denominators come from :data:`DENOMINATORS` (LCM 2520 ≤ 10⁶): the
reference keys states on remaining times rounded to 9 decimals, which can
merge distinct exact remainders only below 10⁻⁹ apart; the new engine keys
exact graphs on exact ticks.

The random graphs have at most 3 phases per actor.  The periodic jumps of
``execute`` and of the state-space loop (DESIGN.md §11) replay long runs of
identical phases, one-tick bursts and interleaved producer/consumer
instants, so :func:`gateway_model` also draws the paper's Fig. 5 and Fig. 7
models of random gateway systems, which have all three.
"""

from contextlib import ExitStack
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    build_stream_csdf,
    build_stream_sdf,
    csdf_builder,
    epsilon_hat,
    sdf_abstraction,
    tau_hat,
    verification,
)
from repro.dataflow import (
    CSDFGraph,
    DeadlockError,
    GraphError,
    execute,
    simulation,
    statespace,
    steady_state_throughput,
)
from tests import refdataflow

DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9)
#: zero-delay livelock guard for both engines: livelocks cost ~1000 firings
#: here instead of 10**6, and the guard must still trip identically
GUARD = 1000

_duration = {
    "int": st.integers(min_value=0, max_value=6),
    "fraction": st.builds(
        Fraction, st.integers(min_value=0, max_value=40), st.sampled_from(DENOMINATORS)
    ),
    # tenths are inexact in binary: float time accumulates rounding
    "float": st.integers(min_value=0, max_value=60).map(lambda k: k / 10),
    # zero-duration chains resolve inside one instant, pass by pass
    "zero": st.just(0),
}


@st.composite
def consistent_graph(draw):
    """A strongly connected, consistent (C)SDF graph.

    A ring through every actor plus random extra edges (self-loops
    included); each edge's quanta satisfy the balance equations for drawn
    per-actor repetition counts, spread over the phases at random.  Initial
    tokens are random, so some graphs deadlock and zero-duration cycles
    holding tokens livelock.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(_duration)), min_size=1, max_size=3,
                          unique=True))
    n = draw(st.integers(min_value=1, max_value=4))
    g = CSDFGraph("diff")
    reps, phases = [], []
    for i in range(n):
        ph = draw(st.integers(min_value=1, max_value=3))
        durs = [draw(_duration[draw(st.sampled_from(kinds))]) for _ in range(ph)]
        g.add_actor(f"a{i}", duration=durs, phases=ph)
        reps.append(draw(st.integers(min_value=1, max_value=3)))
        phases.append(ph)

    def spread(total, ph):
        quanta = [0] * ph
        for _ in range(total):
            quanta[draw(st.integers(min_value=0, max_value=ph - 1))] += 1
        return quanta

    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=3))
    for k, (src, dst) in enumerate(pairs):
        # reps[src] * production == reps[dst] * consumption
        mult = draw(st.integers(min_value=1, max_value=2))
        common = gcd(reps[src], reps[dst])
        g.add_edge(
            f"a{src}", f"a{dst}",
            production=spread(mult * reps[dst] // common, phases[src]),
            consumption=spread(mult * reps[src] // common, phases[dst]),
            tokens=draw(st.integers(min_value=0, max_value=6)),
            name=f"e{k}",
        )
    return g


#: end-task periods: zero-duration, bursting one tick apart, the default
#: (1/μ, a Fraction), or drawn
_period = st.one_of(
    st.sampled_from((0, Fraction(1, 1000), None)),
    st.builds(Fraction, st.integers(min_value=1, max_value=60), st.sampled_from((1, 3, 7))),
)


@st.composite
def gateway_model(draw):
    """The Fig. 5 CSDF or Fig. 7 SDF model of stream ``s`` of a random system.

    η up to 40 gives the gateway actors long runs of identical phases; zero
    copy times, accelerators and end-task periods put zero-duration firings
    inside them; an end task at 1/1000 cycle bursts one tick apart; other
    streams fold their τ̂ into ``vG0``'s first phase.  Buffer sizes and
    prequeued tokens are drawn, so a producer may run ahead, block or wait.
    A system whose rotation takes 0 cycles (every copy, ρ and R_s zero) is
    refused with a ``ParameterError``, checked here, and drawn as ``None``.
    """
    eta = draw(st.integers(min_value=1, max_value=40), label="eta")
    small = st.integers(min_value=0, max_value=4)
    streams = [StreamSpec(
        "s", draw(st.builds(Fraction, st.integers(1, 5), st.integers(5, 200))),
        draw(st.integers(min_value=0, max_value=40)), block_size=eta)]
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        streams.append(StreamSpec(f"o{k}", Fraction(1, 1000), draw(small),
                                  block_size=draw(st.integers(1, 4))))
    fields = dict(
        accelerators=[AcceleratorSpec(f"a{k}", draw(small))
                      for k in range(draw(st.integers(min_value=1, max_value=3)))],
        streams=streams,
        entry_copy=draw(st.sampled_from((0, 1, 15)) | small),
        exit_copy=draw(small),
        ni_capacity=draw(st.integers(min_value=1, max_value=3)),
    )
    copies = (fields["entry_copy"], fields["exit_copy"],
              *(a.rho for a in fields["accelerators"]))
    if not any(copies) and not any(s.reconfigure for s in streams):
        with pytest.raises(ParameterError, match="rotation takes 0 cycles"):
            GatewaySystem(**fields)
        return None
    system = GatewaySystem(**fields)
    buffers = st.integers(min_value=eta, max_value=4 * eta)
    kwargs = dict(producer_period=draw(_period), consumer_period=draw(_period),
                  alpha0=draw(buffers), alpha3=draw(buffers))
    if draw(st.booleans(), label="csdf"):
        prequeued = draw(st.integers(min_value=0, max_value=kwargs["alpha0"]))
        return build_stream_csdf(system, "s", prequeued=prequeued, **kwargs)[0]
    return build_stream_sdf(system, "s", **kwargs)


def _livelock():
    """Zero-duration cycle holding tokens: the guard must trip in both."""
    g = CSDFGraph("livelock")
    g.add_actor("a0", duration=[0, Fraction(0)], phases=2)
    g.add_actor("a1", duration=0.0)
    g.add_edge("a0", "a1", production=[1, 0], consumption=1, tokens=1, name="e0")
    g.add_edge("a1", "a0", production=1, consumption=[0, 1], tokens=1, name="e1")
    return g


def _fan_out():
    """A zero-duration firing waking a lower and a higher actor at t=1.

    The rescan fires ``a2`` later in the same pass and ``a0`` only in the
    next one, so the records at t=1 read a3, a1, a2, a0.
    """
    g = CSDFGraph("fan-out")
    for name in ("a0", "a1", "a2"):
        g.add_actor(name, 0)
    g.add_actor("a3", 1)
    g.add_edge("a3", "a1", name="e0")
    g.add_edge("a1", "a0", name="e1")
    g.add_edge("a1", "a2", name="e2")
    g.add_edge("a0", "a3", tokens=1, name="e3")
    g.add_edge("a2", "a3", tokens=1, name="e4")
    return g


def _mixed_tie():
    """A float firing (a0) and a Fraction one (a2) end at t=10 together:
    each record keeps its own end, so a2's start stays Fraction(80, 9)."""
    g = CSDFGraph("mixed-tie")
    g.add_actor("a0", duration=[4.0, 0, 6.0], phases=3)
    g.add_actor("a1", duration=0.0)
    g.add_actor("a2", duration=[Fraction(10, 9), Fraction(10, 3)], phases=2)
    g.add_actor("a3", duration=0.0)
    g.add_edge("a0", "a1", production=[2, 0, 0], consumption=1, tokens=1, name="e0")
    g.add_edge("a1", "a2", production=3, consumption=[2, 0], name="e1")
    g.add_edge("a2", "a3", production=[1, 0], consumption=3, name="e2")
    g.add_edge("a3", "a0", production=1, consumption=[1, 0, 0], tokens=1, name="e3")
    return g


def _ring(durations):
    """Two actors passing one token: a period of two instants, both of
    which wake the pair.  A jump over it must stop short of the quota and,
    with ``a0``'s phases, short of its last phase, which takes longer."""
    g = CSDFGraph("ring")
    g.add_actor("a0", duration=durations, phases=len(durations))
    g.add_actor("a1", 1)
    g.add_edge("a0", "a1", name="e0")
    g.add_edge("a1", "a0", tokens=1, name="e1")
    return g


def _dip():
    """``a`` takes 2 of ``e``'s tokens a tick, ``p1`` returns 3 every 2
    ticks: ``e`` drifts down by one per two-instant period, and is lowest
    between the instants that end periods.  Drift over more than one
    instant is never jumped: the count at the period's end does not bound
    the count at every check."""
    g = CSDFGraph("dip")
    g.add_actor("a", 1)
    g.add_actor("p1", 2)
    g.add_actor("p2", 1)
    g.add_edge("p1", "p1", tokens=1, name="s1")
    g.add_edge("p2", "p2", tokens=1, name="s2")
    g.add_edge("p1", "a", production=3, consumption=2, tokens=40, name="e")
    g.add_edge("p2", "a", name="g")
    return g


def _zero_drift():
    """A one-tick burst whose zero-duration firings drain a stock.

    Each tick ``c`` fires twice from ``pc`` and ``p`` returns one token
    after it, so ``pc`` drifts down by one a tick.  At t=50 the stock is
    short: ``c`` fires once, waits for ``p``'s token and fires again in the
    next pass, and the records read b, c, p, c instead of b, c, c, p.  A
    burst may drift only on inputs of actors that start once in it."""
    g = CSDFGraph("zero-drift")
    g.add_actor("b", 1)
    g.add_actor("c", 0)
    g.add_actor("p", 0)
    g.add_edge("b", "b", tokens=1, name="s")
    g.add_edge("b", "p", name="bp")
    g.add_edge("b", "c", production=2, name="bc")
    g.add_edge("p", "c", tokens=50, name="pc")
    return g


def _fill(block, duration, space):
    """``p`` fills a buffer one token a tick; ``c`` takes ``block`` at once.

    ``p``'s one-tick bursts lower ``space`` and raise ``e``, so a jump over
    them must stop where ``c`` becomes enabled (a failed comparison on a
    count drifting up) or where ``p`` runs out of space (a held comparison
    on a count drifting down).  In the small instances used here the bound
    is 0 replays, so a bound one replay looser jumps where no jump is
    exact."""
    g = CSDFGraph(f"fill[{block},{duration},{space}]")
    g.add_actor("p", 1)
    g.add_actor("c", duration)
    g.add_edge("p", "c", consumption=block, name="e")
    g.add_edge("c", "p", production=block, tokens=space, name="space")
    return g


def _bursting_fig7():
    """A Fig. 7 model whose ``vP`` bursts 1/1000 cycle apart into ``vS``
    (η = 9, γ̂ = 11) and whose ``vC`` drains at once.  The loop's verdict
    comes where a jump lands after its 9th stepped instant; stopped at that
    instant (``max_steps`` 9) it has covered 16 steps, past the recurrence
    that stepping finds at step 13, and only a replayed state equal to its
    last one shows it."""
    system = GatewaySystem(accelerators=[AcceleratorSpec("a0", 0)],
                           streams=[StreamSpec("s", Fraction(1, 5), 0, block_size=9)],
                           entry_copy=0, exit_copy=1)
    return build_stream_sdf(system, "s", producer_period=Fraction(1, 1000),
                            consumer_period=0, alpha0=12, alpha3=9)


def _slow_producer_fig5():
    """A Fig. 5 model (η = 6, ε = 15) with 8 tokens prequeued and a
    producer at 31/3 cycles per token.  Stopped one stepped instant short
    of the loop's verdict, the state the loop stands in equals one in the
    last replay of an earlier jump."""
    system = GatewaySystem(accelerators=[AcceleratorSpec("a0", 0)],
                           streams=[StreamSpec("s", Fraction(1, 5), 0, block_size=6)],
                           entry_copy=15, exit_copy=1)
    return build_stream_csdf(system, "s", producer_period=Fraction(31, 3),
                             consumer_period=0, alpha0=9, alpha3=6, prequeued=8)[0]


def _exact(graph):
    return not any(isinstance(d, float) for a in graph for d in a.duration)


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (GraphError, DeadlockError) as err:
        return type(err).__name__, str(err)


def _kept(graph, record):
    """The (actor, phase) pairs ``record`` keeps: a name keeps every phase."""
    if isinstance(record, bool):
        record = sorted(graph.actors) if record else ()
    if not isinstance(record, dict):
        record = {a: range(graph.actor(a).phases) for a in record}
    return {(a, p) for a, phases in record.items() for p in phases}


def _observe(res, graph, record=True):
    """Everything a run answers; for a scoped ``record``, only what it kept."""
    if isinstance(res, tuple):  # raised
        return res
    kept = _kept(graph, record)

    def of_actor(actor):  # its kept firings and their production times
        firings, times = res.firings_of(actor), res.production_times(actor)
        assert len(firings) == len(times)
        return ([f for f in firings if (actor, f.phase) in kept],
                [t for f, t in zip(firings, times) if (actor, f.phase) in kept])

    return {
        "firings": [f for f in res.firings if (f.actor, f.phase) in kept],
        "completions": res.completions,
        "tokens": res.tokens,
        "end_time": res.end_time,
        "iterations_completed": res.iterations_completed,
        "deadlocked": res.deadlocked,
        "per_actor": {a: of_actor(a) for a in sorted({a for a, _p in kept})},
    }


def _record(graph):
    """``execute``'s ``record``: on, off, a set of names, or a mapping from
    names to the phases kept (a phase set may be empty)."""
    actors = sorted(graph.actors)
    names = st.sets(st.sampled_from(actors))
    return st.booleans() | names | names.flatmap(lambda chosen: st.fixed_dictionaries({
        a: st.sets(st.integers(0, graph.actor(a).phases - 1)) for a in sorted(chosen)}))


def _check_scoped(new, ref, graph, record):
    """``new`` keeps exactly what ``record`` names of ``ref``'s full records,
    phase by phase, and refuses to answer for any actor or phase it did not
    keep."""
    assert _observe(new, graph, record) == _observe(ref, graph, record)
    if isinstance(new, tuple) or isinstance(record, bool):
        assert isinstance(new, tuple) or record or new.firings == []
        return
    kept = _kept(graph, record)
    for actor in sorted(graph.actors):
        phases = [p for p in range(graph.actor(actor).phases) if (actor, p) in kept]
        if not phases:
            with pytest.raises(GraphError, match="not recorded"):
                new.firings_of(actor)
        for p in range(graph.actor(actor).phases):
            if p in phases:
                assert new.firings_of(actor, p) == [
                    f for f in ref.firings_of(actor) if f.phase == p]
            elif phases:
                with pytest.raises(GraphError, match="not recorded"):
                    new.firings_of(actor, p)


def _guarded():
    stack = ExitStack()
    stack.enter_context(mock.patch.object(simulation, "_MICRO_GUARD", GUARD))
    stack.enter_context(mock.patch.object(refdataflow, "_MICRO_GUARD", GUARD))
    return stack


_horizon = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=30),
    st.builds(Fraction, st.integers(min_value=0, max_value=90), st.sampled_from((3, 7))),
    st.floats(min_value=0, max_value=30),
)


@given(
    consistent_graph(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    _horizon,
    st.booleans(),
    st.booleans(),
)
@example(_livelock(), 2, None, True, True)
@example(_fan_out(), 2, None, True, True)
@example(_mixed_tie(), None, None, True, False)
@example(_ring([1]), 50, 1000, True, True)
@example(_ring([1, 1, 1, 1, 1, 7]), 3, 1000, True, True)
@example(_zero_drift(), None, 60, True, True)
@example(_dip(), None, 100, True, True)
@settings(max_examples=400, deadline=None)
def test_execute_matches_reference(graph, iterations, horizon, record, allow_deadlock):
    if iterations is None and horizon is None:
        iterations = 2
    kwargs = dict(iterations=iterations, horizon=horizon, record=record,
                  allow_deadlock=allow_deadlock)
    with _guarded():
        new = _outcome(execute, graph, **kwargs)
        ref = _outcome(refdataflow.execute, graph, **kwargs)
    assert _observe(new, graph) == _observe(ref, graph)
    if not isinstance(new, tuple) and _exact(graph):
        # exact graphs: whole times as int, the rest as Fraction
        times = [new.end_time] + [t for f in new.firings for t in (f.start, f.end)]
        assert all(type(t) is int or (type(t) is Fraction and t.denominator > 1)
                   for t in times)


@given(consistent_graph(), st.data())
@settings(max_examples=200, deadline=None)
def test_execute_scoped_records_match_reference(graph, data):
    """``record`` naming actors, or mapping them to phases, keeps exactly
    those firings, and refuses to answer for any other actor or phase."""
    record = data.draw(_record(graph), label="record")
    with _guarded():
        new = _outcome(execute, graph, iterations=2, record=record)
        ref = _outcome(refdataflow.execute, graph, iterations=2)
    _check_scoped(new, ref, graph, record)


#: a step limit past every recurrence, deadlock and livelock of the drawn graphs
REACH = 100_000


def _reference_throughput(graph, **kwargs):
    """The reference's outcome and the instants it stepped to reach it."""
    stepped = []
    advance = refdataflow.SelfTimedEngine.advance

    def counted(engine):
        stepped.append(None)
        return advance(engine)

    with mock.patch.object(refdataflow.SelfTimedEngine, "advance", counted):
        outcome = _outcome(refdataflow.steady_state_throughput, graph, **kwargs)
    return outcome, len(stepped)


def _jumping(graph, **kwargs):
    """The new loop's outcome, the instants it stepped and the steps it covered."""
    stepped, covered = [], []

    class Counted(simulation.SelfTimedEngine):
        def walk(self, limit=None):
            for jump in super().walk(limit):
                stepped.append(jump is None)
                covered.append(1 if jump is None else jump[0] * jump[1])
                yield jump

    with mock.patch.object(statespace, "SelfTimedEngine", Counted):
        outcome = _outcome(steady_state_throughput, graph, **kwargs)
    return outcome, sum(stepped), sum(covered)


@given(
    consistent_graph() | gateway_model(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(("stepping", "jumping")),
    st.integers(min_value=-3, max_value=2) | st.just("half"),
)
@example(_livelock(), 0, "stepping", 0)
@example(_fill(2, 3, 4), 0, "stepping", 0)
@example(_fill(3, 1, 4), 0, "stepping", 0)
@example(_bursting_fig7(), 0, "jumping", 0)
@example(_slow_producer_fig5(), 0, "jumping", -1)
@settings(max_examples=300, deadline=None)
def test_steady_state_throughput_matches_reference(graph, which, side, cut):
    """The whole outcome, with ``max_steps`` around the instant at which
    a run settles the graph (recurrence, deadlock or livelock), stepping
    every instant or jumping, or at half of it.

    ``max_steps`` bounds the instants the new loop steps; its jumps replay
    instants without stepping them, so where the reference runs out of
    steps the new loop may still reach the outcome, which is then compared
    with the reference's at a limit past it.  The new loop gives up only
    while the steps it covered fall short of the reference's: just short
    of its own verdict, a recurrence may already lie in the instants it
    replayed."""
    if graph is None:  # gateway_model's refused zero-cycle rotation
        return
    actors = sorted(graph.actors)
    actor = actors[which % len(actors)]
    with _guarded():
        reached, steps = _reference_throughput(graph, actor=actor, max_steps=REACH)
        _settled, stepped, _covered = _jumping(graph, actor=actor, max_steps=REACH)
        base = steps if side == "stepping" else stepped
        limit = max(1, base // 2 if cut == "half" else base + cut)
        new, _stepped, covered = _jumping(graph, actor=actor, max_steps=limit)
        ref = _outcome(refdataflow.steady_state_throughput, graph, actor=actor,
                       max_steps=limit)
    assert steps < REACH
    if isinstance(new, tuple) and new[1].startswith("no steady state"):
        assert covered < steps
    if new != ref and isinstance(ref, tuple) and ref[1].startswith("no steady state"):
        ref = reached
    assert new == ref


def test_pal_stage2_verify_graphs_match_reference():
    """Every graph ``verify_stream`` builds for a PAL stage-2 stream (η = 1267).

    The paper's PAL system, with its block sizes at the 0.127% rate margin
    that reproduces them; each ``execute`` / ``steady_state_throughput``
    call is run on both engines and must agree before the verdict is
    computed.  Verification records only the phases it reads, so each run
    is compared on exactly the (actor, phase) pairs its ``record`` keeps,
    against the reference's full records.  One Fig. 5 model serves both
    the τ̂ check and the refinement.
    """
    system = Scenario.from_registry(
        "pal_decoder", eta_stage1=10136, eta_stage2=1267, margin_ppm=1270).system
    calls = []

    def both_execute(graph, record=True, **kwargs):
        new = execute(graph, record=record, **kwargs)
        ref = refdataflow.execute(graph, record=True, **kwargs)
        assert _observe(new, graph, record) == _observe(ref, graph, record)
        calls.append((graph.name, record))
        return new

    def both_throughput(graph, **kwargs):
        new = steady_state_throughput(graph, **kwargs)
        assert new == refdataflow.steady_state_throughput(graph, **kwargs)
        calls.append(graph.name)
        return new

    with ExitStack() as stack:
        for module in (verification, csdf_builder):
            stack.enter_context(mock.patch.object(module, "execute", both_execute))
        stack.enter_context(mock.patch.object(
            sdf_abstraction, "steady_state_throughput", both_throughput))
        result = verification.verify_stream(system, "ch1.s2")
    assert calls == ["sdf[ch1.s2]", ("csdf[ch1.s2]", {"vG0": (0,), "vG1": (1266,)}),
                     ("sdf[ch1.s2]", ("vS",))]
    assert result.ok and result.eta == 1267


def _two_model_verdicts(system, name, blocks):
    """τ̂ and CSDF ⊑ SDF as computed with two Fig. 5 models per stream and
    full records: a test oracle for :func:`verification.verify_stream`.

    The τ̂ run prequeues two blocks (α0 = α3 = 2η) and runs ``blocks``
    iterations; the refinement run prequeues four (4η) and compares all
    3·η exit tokens of its three iterations with the Fig. 7 model's
    productions.  Returns ``(tau_measured, tau_ok, refinement_ok)``.
    """
    eta, fast = system.stream(name).block_size, Fraction(1, 1000)
    csdf, _info = build_stream_csdf(system, name, producer_period=fast,
                                    consumer_period=fast, alpha0=2 * eta,
                                    alpha3=2 * eta, prequeued=2 * eta)
    run = execute(csdf, iterations=blocks)
    starts = [f for f in run.firings_of("vG0") if f.phase == 0]
    ends = [f for f in run.firings_of("vG1") if f.phase == eta - 1]
    taus = [end.end - start.start for start, end in zip(starts, ends)]
    eps = epsilon_hat(system, name) if len(system.streams) > 1 else 0
    measured = max(taus, default=0) - eps
    tau_ok = len(taus) >= blocks and measured <= tau_hat(system, name)

    csdf, _info = build_stream_csdf(system, name, producer_period=fast,
                                    consumer_period=fast, alpha0=4 * eta,
                                    alpha3=4 * eta, prequeued=4 * eta)
    sdf = build_stream_sdf(system, name, producer_period=fast, consumer_period=fast,
                           alpha0=4 * eta, alpha3=4 * eta)
    tokens = execute(csdf, iterations=3).production_times("vG1")
    productions = execute(sdf, iterations=3).production_times("vS")[:3]
    refines = len(productions) == 3 and len(tokens) >= 3 * eta and all(
        max(tokens[b * eta:(b + 1) * eta]) <= end for b, end in enumerate(productions))
    return measured, tau_ok, refines


@st.composite
def sized_system(draw):
    """A random gateway system with block sizes up to 300 on every stream,
    zero exit copies, accelerators and reconfiguration times included (a
    zero entry copy as well would leave Eq. 5's SDF model without time)."""
    small = st.integers(min_value=0, max_value=4)
    streams = [StreamSpec(f"s{k}",
                          draw(st.builds(Fraction, st.integers(1, 5), st.integers(5, 400))),
                          draw(st.integers(min_value=0, max_value=40)),
                          block_size=draw(st.integers(min_value=1, max_value=300)))
               for k in range(draw(st.integers(min_value=1, max_value=3)))]
    return GatewaySystem(
        accelerators=[AcceleratorSpec(f"a{k}", draw(small))
                      for k in range(draw(st.integers(min_value=1, max_value=3)))],
        streams=streams,
        entry_copy=draw(st.sampled_from((1, 15)) | st.integers(min_value=1, max_value=4)),
        exit_copy=draw(small),
        ni_capacity=draw(st.integers(min_value=1, max_value=3)),
    )


@given(sized_system(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_stream_matches_two_model_oracle(system, blocks, data):
    """One Fig. 5 run per stream, prequeued ``(max(blocks, 3) + 1)·η`` and
    keeping two records per block, gives the τ̂ and refinement verdicts (and
    the measured τ) of the two fully recorded runs it replaced."""
    name = data.draw(st.sampled_from([s.name for s in system.streams]), label="stream")
    result = verification.verify_stream(system, name, blocks)
    assert (result.tau_measured, result.tau_ok, result.refinement_ok) == \
        _two_model_verdicts(system, name, blocks)


_model_horizon = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=600),
    st.builds(Fraction, st.integers(min_value=0, max_value=6000),
              st.sampled_from((7, 1000))),
    st.floats(min_value=0, max_value=600),
)


@given(
    gateway_model(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    _model_horizon,
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_gateway_models_match_reference(graph, iterations, horizon, data):
    """Fig. 5 / Fig. 7 models: ``execute`` jumps periods exactly, under
    iteration and horizon stops, with records on, off and scoped to actors
    or to phases of them (the records a jump replays included)."""
    if graph is None:  # gateway_model's refused zero-cycle rotation
        return
    if iterations is None and horizon is None:
        iterations = 2
    record = data.draw(_record(graph), label="record")
    kwargs = dict(iterations=iterations, horizon=horizon)
    with _guarded():
        new = _outcome(execute, graph, record=record, **kwargs)
        # a scoped run is compared with the reference's full records
        ref = _outcome(refdataflow.execute, graph, record=record is not False, **kwargs)
    _check_scoped(new, ref, graph, record)


def test_pal_stage2_csdf_jumps_its_periods():
    """A PAL stage-2 Fig. 5 model (η = 1267), three blocks: the engine
    processes far fewer instants than it completes firings, and its records
    equal the reference's firing for firing."""
    system = Scenario.from_registry(
        "pal_decoder", eta_stage1=10136, eta_stage2=1267, margin_ppm=1270).system
    fast = Fraction(1, 1000)
    graph, _info = build_stream_csdf(system, "ch1.s2", producer_period=fast,
                                     consumer_period=fast, alpha0=4 * 1267,
                                     alpha3=4 * 1267, prequeued=4 * 1267)
    engines = []

    class Counted(simulation.SelfTimedEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    with mock.patch.object(simulation, "SelfTimedEngine", Counted):
        new = execute(graph, iterations=3)
    (engine,) = engines
    firings = sum(new.completions.values())
    assert firings == len(new.firings) > 20_000
    assert engine.instants * 100 < firings
    assert _observe(new, graph) == _observe(refdataflow.execute(graph, iterations=3), graph)


def test_pal_sdf_statespace_jumps_its_periods():
    """PAL's four Fig. 7 models at rate μ: the state-space loop returns the
    reference's ``ThroughputResult`` while stepping fewer than 1% of the
    reference's steps, and ``execute()`` on ch1.s1's model processes fewer
    than one instant per 100 firings, with the reference's records."""
    system = Scenario.from_registry(
        "pal_decoder", eta_stage1=10136, eta_stage2=1267, margin_ppm=1270).system
    engines = []

    class Counted(simulation.SelfTimedEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    reference_steps = 0
    for stream in system.streams:
        graph = build_stream_sdf(system, stream.name)
        with mock.patch.object(statespace, "SelfTimedEngine", Counted):
            new = steady_state_throughput(graph, actor="vC")
        ref, steps = _reference_throughput(graph, actor="vC")
        assert new == ref
        assert new.transient_steps == 2 * stream.block_size  # 20,272 and 2,534
        reference_steps += steps
    assert reference_steps == 91_224
    assert sum(engine.instants for engine in engines) * 100 < reference_steps

    graph = build_stream_sdf(system, "ch1.s1")
    engines.clear()
    with mock.patch.object(simulation, "SelfTimedEngine", Counted):
        new = execute(graph, iterations=3)
    (engine,) = engines
    firings = sum(new.completions.values())
    assert firings == len(new.firings) == 81_091
    assert engine.instants * 100 < firings
    assert _observe(new, graph) == _observe(refdataflow.execute(graph, iterations=3), graph)
