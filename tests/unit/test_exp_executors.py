"""Executor backends: shared contract, digest equality, stop semantics,
per-point cleanup."""

import gc
import pickle
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
from repro.exp.runner import PointRunner
from repro.exp.tasks import scalability_blocksizes


def square_task(params, ctx):
    return {"y": params["x"] ** 2, "seed": ctx.seed}


def make_sweep(n=6):
    return Sweep("backends", square_task, [{"x": i} for i in range(n)], seed=11)


def make_jobs(sweep):
    return list(enumerate(sweep.points))


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
    runner = PointRunner(task=sweep.task, **runner_kwargs)
    landed = {}

    def on_point(index, outcome, stats):
        assert index not in landed, "point delivered twice"
        landed[index] = outcome

    info = backend.run(make_jobs(sweep), runner, on_point)
    return landed, info


def test_serial_runs_points_in_order():
    sweep = make_sweep()
    order = []
    info = SerialExecutor().run(
        make_jobs(sweep)[::-1], PointRunner(task=sweep.task),
        lambda index, outcome, stats: order.append((index, outcome.id)),
    )
    assert order == [(i, f"x={i}") for i in range(6)]
    assert info["mode"] == "serial"
    assert not info["degraded"] and not info["stopped"]


@pytest.mark.parametrize(
    "backend_name,backend",
    [
        # more workers than the three points: only three may start
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
    sweep = make_sweep(3)
    serial_landed, _ = collect(SerialExecutor(), sweep)
    landed, info = collect(backend, sweep)
    assert info["mode"] == "work-queue"
    assert len(spawned) == info["effective_workers"] == min(backend.workers, 3)
    assert info["worker_restarts"] == 0
    assert sorted(landed) == sorted(serial_landed)
    for index in serial_landed:
        assert landed[index].payload() == serial_landed[index].payload()
    assert info["quarantined"] == []


def test_stop_execution_halts_serial_backend():
    sweep = make_sweep()
    seen = []

    def on_point(index, outcome, stats):
        seen.append(index)
        raise StopExecution()

    info = SerialExecutor().run(
        make_jobs(sweep), PointRunner(task=sweep.task), on_point
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


# -- the sweep memo -----------------------------------------------------------

def test_memo_lives_for_one_sweep_per_process_and_is_never_pickled():
    """Replicas of one system share a memo across points, each sweep run
    starts its own, and a pickled runner arrives without one."""
    sweep = Sweep.grid("memo", scalability_blocksizes,
                       axes={"streams": [3], "replica": [0, 1, 2]})
    runner = PointRunner(task=sweep.task)
    stats = [runner.run(point)[1] for point in sweep.points]
    assert [(s["hits"], s["misses"]) for s in stats] == [(0, 1), (1, 0), (1, 0)]
    clone = pickle.loads(pickle.dumps(runner))
    assert clone == runner and len(clone._memo) == 0
    for _ in range(2):
        assert run_sweep(sweep, workers=1).cache["hits"] == 2
    assert run_sweep(sweep, workers=1, cache=False).cache["lookups"] == 0


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
        PointRunner(task=abort_task).run(make_sweep(2).points[0])
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == was_enabled
    result = run_sweep(make_sweep(2), workers=1)
    assert all(o.ok for o in result.outcomes)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == was_enabled
