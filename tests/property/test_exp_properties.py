"""Engine determinism properties: serial ≡ parallel, order, seeding.

The sweep engine's contract is that results are a pure function of the
sweep spec — independent of worker count, scheduling, and which process
(so which solver memo) evaluated which point.  These properties drive
randomly shaped grids through serial and work-queue execution and
require byte-equal payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import Sweep, point_seed, run_sweep
from repro.exp.tasks import fig8_min_buffer


def arith_task(params, ctx):
    """Cheap deterministic module-level task (importable by queue workers)."""
    return {
        "sum": params["a"] + params["b"],
        "product": params["a"] * params["b"],
        "seed": ctx.seed,
    }


grids = st.fixed_dictionaries({
    "a": st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True),
    "b": st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
})


@settings(max_examples=10, deadline=None)
@given(axes=grids, seed=st.integers(0, 2**16))
def test_serial_payload_is_pure(axes, seed):
    """Two serial runs of the same spec are byte-identical."""
    sweep = Sweep.grid("prop_pure", arith_task, axes=axes, seed=seed)
    first = run_sweep(sweep, workers=1)
    second = run_sweep(sweep, workers=1)
    assert first.digest() == second.digest()
    assert first.payload() == second.payload()


@settings(max_examples=4, deadline=None)
@given(
    axes=grids,
    seed=st.integers(0, 2**16),
    workers=st.integers(2, 3),
)
def test_parallel_equals_serial_bit_identical(axes, seed, workers):
    """Any worker count: payloads match the serial run."""
    sweep = Sweep.grid("prop_par", arith_task, axes=axes, seed=seed)
    serial = run_sweep(sweep, workers=1)
    parallel = run_sweep(sweep, workers=workers)
    assert parallel.digest() == serial.digest()
    assert parallel.payload() == serial.payload()
    assert [o.id for o in parallel.outcomes] == [p.id for p in sweep.points]


@settings(max_examples=3, deadline=None)
@given(etas=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
def test_real_task_parallel_equals_serial(etas):
    """The property holds for a real analysis task, not just arithmetic."""
    sweep = Sweep.grid("prop_fig8", fig8_min_buffer, axes={"eta": etas})
    serial = run_sweep(sweep, workers=1)
    parallel = run_sweep(sweep, workers=2)
    assert parallel.digest() == serial.digest()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    name=st.text(min_size=1, max_size=20),
    pid=st.text(min_size=1, max_size=30),
)
def test_point_seed_deterministic_and_bounded(seed, name, pid):
    first = point_seed(seed, name, pid)
    assert first == point_seed(seed, name, pid)
    assert 0 <= first < 2**32


@settings(max_examples=10, deadline=None)
@given(axes=grids, seed=st.integers(0, 2**16))
def test_task_receives_derived_seed(axes, seed):
    """Every outcome carries exactly the seed derived from (seed, name, id)."""
    sweep = Sweep.grid("prop_seeds", arith_task, axes=axes, seed=seed)
    result = run_sweep(sweep, workers=1)
    for outcome in result.outcomes:
        assert outcome.value["seed"] == point_seed(seed, "prop_seeds", outcome.id)


@settings(max_examples=3, deadline=None)
@given(
    axes=grids,
    seed=st.integers(0, 2**16),
    stop_after=st.integers(1, 3),
)
def test_serial_pool_and_resumed_runs_coincide(axes, seed, stop_after):
    """serial ≡ parallel ≡ interrupted-then-resumed, for arbitrary grids.

    The parallel run is the work queue's worker pool.  The crash/resume
    history is part of the quantifier: we interrupt a stored run after
    ``stop_after`` points and resume it on the queue, and the result must
    still be byte-identical to both the serial and the parallel run.
    """
    import tempfile

    from repro.exp import SweepInterrupted

    sweep = Sweep.grid("prop_resume", arith_task, axes=axes, seed=seed)
    serial = run_sweep(sweep, workers=1)
    parallel = run_sweep(sweep, workers=2)
    assert parallel.mode == "work-queue"
    assert parallel.digest() == serial.digest()
    assert parallel.payload() == serial.payload()

    with tempfile.TemporaryDirectory() as store:
        try:
            run_sweep(sweep, workers=1, store=store, interrupt_after=stop_after)
            interrupted = False  # no more points than stop_after: ran through
        except SweepInterrupted:
            interrupted = True
        resumed = run_sweep(sweep, workers=2, store=store, resume=interrupted)
        assert resumed.store_hits == (
            stop_after if interrupted else len(sweep.points)
        )
        assert resumed.digest() == serial.digest()
        assert resumed.payload() == serial.payload()
