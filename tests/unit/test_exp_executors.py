"""Executor backends: shared contract, digest equality, stop semantics,
per-point cleanup."""

import gc
import weakref

import pytest

from repro.exp import (
    SerialExecutor,
    Sweep,
    WorkQueueExecutor,
    resolve_executor,
    run_sweep,
)
from repro.exp.executors import StopExecution
from repro.exp.runner import ChunkRunner


def square_task(params, ctx):
    return {"y": params["x"] ** 2, "seed": ctx.seed}


def make_sweep(n=6):
    return Sweep("backends", square_task, [{"x": i} for i in range(n)], seed=11)


def make_jobs(sweep, size=2):
    pts = sweep.points
    return [
        (i, tuple(pts[lo : lo + size]))
        for i, lo in enumerate(range(0, len(pts), size))
    ]


# -- resolve_executor ---------------------------------------------------------

def test_resolver_defaults_to_serial_for_one_worker():
    assert isinstance(resolve_executor(None, 1), SerialExecutor)


def test_resolver_defaults_to_pool_for_many_workers():
    """More than one worker means the work-queue worker pool."""
    backend = resolve_executor(None, 3)
    assert isinstance(backend, WorkQueueExecutor)
    assert backend.workers == 3


def test_resolver_maps_names_and_passes_instances_through():
    """An instance wins over ``workers``, whichever backend it is."""
    for mine in (SerialExecutor(), WorkQueueExecutor(workers=2)):
        assert resolve_executor(mine, 8) is mine
        assert resolve_executor(mine, 1) is mine


def test_resolver_rejects_unknown_backend():
    """Backend names are gone: ``workers`` is the only execution knob."""
    for name in ("serial", "pool", "queue"):
        with pytest.raises(TypeError, match="workers=N"):
            resolve_executor(name, 2)


# -- shared contract ----------------------------------------------------------

def collect(backend, sweep, **runner_kwargs):
    runner = ChunkRunner(task=sweep.task, **runner_kwargs)
    landed = {}

    def on_chunk(index, outcomes, stats):
        assert index not in landed, "chunk delivered twice"
        landed[index] = outcomes

    info = backend.run(make_jobs(sweep), runner, on_chunk)
    return landed, info


def test_serial_runs_chunks_in_order():
    sweep = make_sweep()
    landed, info = collect(SerialExecutor(), sweep)
    assert sorted(landed) == [0, 1, 2]
    assert info["mode"] == "serial"
    assert not info["degraded"] and not info["stopped"]
    assert [o.id for o in landed[0]] == ["x=0", "x=1"]


@pytest.mark.parametrize(
    "backend_name,backend",
    [
        # more workers than the three chunks: only three may start
        ("surplus-workers", WorkQueueExecutor(workers=5, poll_s=0.01)),
        ("queue", WorkQueueExecutor(workers=2, poll_s=0.01)),
    ],
)
def test_parallel_backends_match_serial_exactly(backend_name, backend, monkeypatch):
    spawned = []
    real_spawn = WorkQueueExecutor._spawn_worker

    def counting_spawn(self, root):
        spawned.append(root)
        return real_spawn(self, root)

    monkeypatch.setattr(WorkQueueExecutor, "_spawn_worker", counting_spawn)
    sweep = make_sweep()
    serial_landed, _ = collect(SerialExecutor(), sweep)
    landed, info = collect(backend, sweep)
    assert info["mode"] == "work-queue"
    assert len(spawned) == info["effective_workers"] == min(backend.workers, 3)
    assert info["worker_restarts"] == 0
    assert sorted(landed) == sorted(serial_landed)
    for index in serial_landed:
        assert [o.payload() for o in landed[index]] == [
            o.payload() for o in serial_landed[index]
        ]
    assert info["quarantined"] == []


def test_stop_execution_halts_serial_backend():
    sweep = make_sweep()
    seen = []

    def on_chunk(index, outcomes, stats):
        seen.append(index)
        raise StopExecution()

    info = SerialExecutor().run(
        make_jobs(sweep), ChunkRunner(task=sweep.task), on_chunk
    )
    assert seen == [0]
    assert info["stopped"] is True


def test_engine_maps_executor_names_to_modes():
    sweep = make_sweep(4)
    serial = run_sweep(sweep, workers=1)
    assert serial.mode == "serial"
    queued = run_sweep(sweep, workers=2)
    assert queued.mode == "work-queue"
    assert queued.digest() == serial.digest()
    with pytest.raises(TypeError):
        run_sweep(sweep, workers=2, executor="queue")


# -- per-point cleanup --------------------------------------------------------

class _Cycle:
    """Garbage that only the cyclic collector can free."""

    def __init__(self):
        self.me = self


#: weak references to the cycles that earlier points left behind
_left_behind = []


def cycle_task(params, ctx):
    """Report whether every earlier point's cycle is freed; leave a new one."""
    freed = all(ref() is None for ref in _left_behind)
    _left_behind.append(weakref.ref(_Cycle()))
    if params["fail"]:
        raise RuntimeError("point failed")
    return {"earlier_freed": freed}


class _Abort(BaseException):
    """Escapes the runner's per-point error capture."""


def abort_task(params, ctx):
    raise _Abort()


def test_point_garbage_is_collected_before_the_next_point():
    """With automatic collection off, only the runner's per-point
    collection can free a finished point's cycle before the next starts;
    a failing point is cleaned up too, and the collector's state is
    restored."""
    _left_behind.clear()
    sweep = Sweep("cleanup", cycle_task,
                  [{"x": i, "fail": i == 1} for i in range(4)], seed=5)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_sweep(sweep, workers=1)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert gc.get_freeze_count() == 0
    assert [o.ok for o in result.outcomes] == [True, False, True, True]
    assert [o.value["earlier_freed"] for o in result.outcomes if o.ok] == [
        True, True, True]
    assert all(ref() is None for ref in _left_behind)


def test_runner_unfreezes_when_a_point_escapes():
    was_enabled = gc.isenabled()
    with pytest.raises(_Abort):
        ChunkRunner(task=abort_task).run(make_sweep(2).points)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == was_enabled
    result = run_sweep(make_sweep(2), workers=1)
    assert all(o.ok for o in result.outcomes)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == was_enabled
