"""Crash-tolerant parallel experiment engine for parameter sweeps.

The paper's evaluation is a family of parameter sweeps; this package turns
those loops into declarative, validated, parallel, *resumable*
experiments::

    from repro.exp import Sweep, run_sweep, tasks

    sweep = Sweep.grid(
        "scalability",
        tasks.scalability_blocksizes,
        axes={"streams": [2, 4, 8, 16], "load_pct": [50, 70, 90]},
    )
    result = run_sweep(sweep, workers=4, out_dir=".")   # BENCH_scalability.json
    assert result.digest() == run_sweep(sweep, workers=1).digest()

    # durable + resumable: journal points as they land, survive kills
    result = run_sweep(sweep, workers=4, store="results/", resume=False)
    again = run_sweep(sweep, workers=4, store="results/")   # pure cache hit

Guarantees: eager spec validation (bad grids fail before any worker
spawns), deterministic per-point seeding, one solver memo per process
for the whole sweep, and bit-identical merged results for any worker
count (``workers=1`` runs in-process, more run on a crash-tolerant work
queue of fresh worker processes) and any crash-resume history.  The point
is the unit of dispatch, commit, resume and quarantine.  Parallel tasks
must be importable by those workers: define them in a module, not in
``__main__``.  Fault tolerance: seeded retries with exponential backoff,
portable per-point timeouts, dead-worker detection with point
re-dispatch, poison-point quarantine, and graceful degradation to serial —
chaos-tested in :mod:`repro.exp.chaos`.
"""

from . import tasks
from .cache import SolverCache
from .chaos import ChaosEvent, ChaosMonkey, ChaosPlan, run_chaos_sweep
from .engine import (
    PointContext,
    PointOutcome,
    SweepInterrupted,
    SweepResult,
    run_sweep,
    write_benchmark,
)
from .executors import (
    Executor,
    SerialExecutor,
    WorkQueueExecutor,
    resolve_executor,
)
from .runner import PointRunner, retry_delay
from .store import ResultStore, StoreMismatch, point_key, sweep_fingerprint
from .sweep import (
    Sweep,
    SweepError,
    SweepPoint,
    point_seed,
    scenario_corpus,
)

__all__ = [
    "ChaosEvent",
    "ChaosMonkey",
    "ChaosPlan",
    "Executor",
    "PointContext",
    "PointOutcome",
    "PointRunner",
    "ResultStore",
    "SerialExecutor",
    "SolverCache",
    "StoreMismatch",
    "Sweep",
    "SweepError",
    "SweepInterrupted",
    "SweepPoint",
    "SweepResult",
    "WorkQueueExecutor",
    "point_key",
    "point_seed",
    "resolve_executor",
    "retry_delay",
    "run_chaos_sweep",
    "run_sweep",
    "scenario_corpus",
    "sweep_fingerprint",
    "tasks",
    "write_benchmark",
]
