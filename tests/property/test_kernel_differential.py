"""Differential testing: calendar-queue kernel vs the frozen heap kernel.

``tests/refkernel.py`` is a verbatim copy of the pre-calendar-queue
kernel, kept as an executable specification.  These properties run
randomly generated programs — interleavings of timeouts, shared-event
waits, ``succeed``/``cancel``, ``interrupt`` and ``AnyOf`` loser-reaping
— through both kernels and require the *entire observable
behaviour* to match: every dispatch (cycle, process, op, outcome) in
order, the final clock, the next pending cycle, and whether/what the run
raised.  Any divergence is a bug in the calendar queue, because the
reference defines the semantics.

A second property drives the same programs through randomly chosen
``run(until=cycle)`` checkpoints to pin the horizon-clamping clock
semantics across both kernels, and a third through the harness's bounded
driver, ``run_until(stop, limit)`` on one of the program's processes,
before draining them with ``run()``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import kernel
from tests import refkernel

N_EVENTS = 4

_op = st.one_of(
    st.tuples(st.just("sleep"), st.integers(1, 25)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1), st.integers(0, 8)),
    st.tuples(st.just("cancel"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("race"), st.integers(0, N_EVENTS - 1), st.integers(1, 12)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)

_program = st.lists(
    st.lists(_op, min_size=1, max_size=6), min_size=2, max_size=8
)


def _execute(mod, program, checkpoints=(), bound=None):
    """Run ``program`` on kernel module ``mod``; return its full behaviour.

    Each process interprets its op list; every resumption appends a tuple
    to ``trace``, so two kernels agree iff their dispatch interleavings
    are identical.  Uncaught exceptions (e.g. an :class:`Interrupt`
    delivered to a plain ``sleep``) propagate out of ``run`` exactly like
    production code would see them; they are part of the behaviour.

    ``bound=(pid, limit)`` first drives ``run_until(procs[pid], limit)``
    (``pid`` modulo the process count) and records what it returned and
    where the clock stood; the ``run(until=cycle)`` checkpoints and the
    final ``run()`` follow.
    """
    sim = mod.Simulator()
    events = [sim.event() for _ in range(N_EVENTS)]
    trace = []
    record = trace.append
    procs = []

    def body(pid, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield sim.timeout(op[1])
                record((sim.now, pid, i, "woke"))
            elif kind == "wait":
                val = yield events[op[1]]
                record((sim.now, pid, i, "wait", val))
            elif kind == "trigger":
                yield sim.timeout(op[2])
                ev = events[op[1]]
                if not ev.triggered and not ev.cancelled:
                    ev.succeed((pid, i))
                    record((sim.now, pid, i, "trig"))
                else:
                    record((sim.now, pid, i, "trig-skip"))
            elif kind == "cancel":
                ev = events[op[1]]
                try:
                    ev.cancel()
                    record((sim.now, pid, i, "cancel"))
                except mod.SimulationError:
                    record((sim.now, pid, i, "cancel-refused"))
                yield sim.timeout(1)
            elif kind == "race":
                idx, val = yield sim.any_of(
                    [events[op[1]], sim.timeout(op[2], "tick")]
                )
                record((sim.now, pid, i, "race", idx, val))
            elif kind == "interrupt":
                target = procs[op[1] % len(procs)]
                try:
                    target.interrupt((pid, i))
                    record((sim.now, pid, i, "sent"))
                except mod.SimulationError:
                    record((sim.now, pid, i, "sent-refused"))
                yield sim.timeout(1)
        record((sim.now, pid, "done"))

    for pid, ops in enumerate(program):
        procs.append(sim.process(body(pid, ops), name=f"p{pid}"))

    outcome = None
    try:
        if bound is not None:
            stop, limit = bound
            fired = sim.run_until(procs[stop % len(procs)], limit)
            record(("bounded", limit, fired, sim.now))
        for horizon in checkpoints:
            sim.run(until=horizon)
            record(("checkpoint", horizon, sim.now))
        sim.run()
        outcome = ("dry", sim.now)
    except mod.Interrupt as err:
        outcome = ("Interrupt", str(err), sim.now)
    except mod.SimulationError as err:
        outcome = ("SimulationError", str(err), sim.now)
    return trace, outcome, sim.now, sim.peek()


@given(_program)
@settings(max_examples=120, deadline=None)
def test_random_interleavings_match_reference_kernel(program):
    got = _execute(kernel, program)
    want = _execute(refkernel, program)
    assert got == want


@given(
    _program,
    st.lists(st.integers(0, 80), min_size=1, max_size=4).map(sorted),
)
@settings(max_examples=80, deadline=None)
def test_checkpointed_runs_match_reference_kernel(program, checkpoints):
    got = _execute(kernel, program, checkpoints)
    want = _execute(refkernel, program, checkpoints)
    assert got == want
    # run(until=cycle) always lands the clock on the horizon, both kernels
    for entry in got[0]:
        if entry[0] == "checkpoint":
            assert entry[2] == entry[1]


@given(_program, st.integers(0, 7), st.integers(0, 80))
@settings(max_examples=120, deadline=None)
# p0 finishes at cycle 1 and the AnyOf that p1 waits on resolves later in
# that cycle, behind p0's completion: run_until must return before it fires
# (about 1 random program in 90 puts an event there)
@example(program=[[("sleep", 1)], [("race", 0, 1)]], pid=0, limit=1)
def test_bounded_run_until_matches_reference_kernel(program, pid, limit):
    got = _execute(kernel, program, bound=(pid, limit))
    want = _execute(refkernel, program, bound=(pid, limit))
    assert got == want
