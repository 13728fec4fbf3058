"""The experiment engine: fan a :class:`~repro.exp.sweep.Sweep` out.

Execution model
---------------

The point is the unit of work.  Each point is evaluated by one worker via
an :class:`~repro.exp.executors.Executor` backend, and ``workers`` picks
it: one worker runs in-process serially, more run on a spawn-safe
file-protocol work queue of independent worker processes.  Each process
that evaluates points keeps one :class:`~repro.exp.cache.SolverCache` for
the whole sweep, so memoized solves are shared between the points it
runs.  Algorithm 1 is exact and pure, so a memo hit returns exactly what
a fresh solve would — which is what makes the central guarantee
possible:

    **both backends produce bit-identical merged results**, because every
    deterministic input of a point (its params, its seed) is independent
    of worker count, scheduling, crashes and restarts.

Durability & resume
-------------------

Arm a :class:`~repro.exp.store.ResultStore` (``store=``) and every
completed point is journaled as it lands; an interrupted or killed run
resumes incrementally (points already on disk replay without executing a
task) and a re-run of an identical spec is a pure cache hit.  The
``resume`` flag demands a matching journal exist; ``interrupt_after``
deterministically stops a run after N freshly executed points by raising
:class:`SweepInterrupted` — the hook CI and the chaos benchmarks use to
prove the kill → resume → digest-equality cycle.

Fault tolerance
---------------

Per point: deterministic seeded retries with jittered exponential backoff
and a wall-clock timeout (``SIGALRM`` pre-emption where available, a
watchdog-thread deadline everywhere else — the mechanism that enforced it
is recorded in the report).  Per worker: dead-worker detection with point
re-dispatch (exactly-once per point in the merged output via
index-keyed commits), poison-point quarantine after repeated crashes
(recorded in the report, never silently dropped), and graceful
degradation to serial execution when workers keep dying.  Wall-clock
timings and worker attribution live in the report's ``execution``
section, which is explicitly excluded from :meth:`SweepResult.digest`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.config_io import dump_report, make_report
from .executors import Executor, StopExecution, resolve_executor
from .runner import (  # noqa: F401  (re-exported: public/engine-test surface)
    PointRunner,
    PointContext,
    PointOutcome,
    _call_with_timeout,
    _PointTimeout,
)
from .store import ResultStore, StoreSession, sweep_fingerprint
from .sweep import Sweep, SweepError

__all__ = [
    "PointContext",
    "PointOutcome",
    "SweepInterrupted",
    "SweepResult",
    "run_sweep",
    "write_benchmark",
]

class SweepInterrupted(RuntimeError):
    """A run stopped early with its progress durably journaled.

    Raised when ``interrupt_after`` fires (or an executor reports a stop).
    Resume by re-running the same spec against the same store.
    """

    def __init__(self, name: str, completed: int, total: int,
                 store_path: str | None) -> None:
        super().__init__(
            f"sweep {name!r} interrupted with {completed}/{total} point(s) "
            f"journaled" + (f" in {store_path}" if store_path else "")
        )
        self.name = name
        self.completed_points = completed
        self.point_count = total
        self.store_path = store_path


@dataclass
class SweepResult:
    """Merged outcome of a sweep run plus execution metadata."""

    name: str
    outcomes: list[PointOutcome]
    workers: int
    elapsed_s: float
    cache: dict[str, Any] = field(default_factory=dict)
    #: the caller's raw ``workers`` argument (None = engine picked)
    requested_workers: int | None = None
    #: processes that could actually run concurrently: 1 when serial,
    #: otherwise capped by the number of points there was work for
    effective_workers: int = 1
    #: ``os.cpu_count()`` on the submitting host — a "parallel speedup"
    #: measured with cpu_count 1 is a serial run in disguise
    cpu_count: int | None = None
    mode: str = "serial"
    #: executor fell back to in-process serial after workers kept dying
    degraded: bool = False
    #: replacement queue workers spawned
    worker_restarts: int = 0
    #: points recorded via poison quarantine: ``{id, failures, error}``
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    #: point outcomes served from the store (pure cache hits)
    store_hits: int = 0
    #: journal path when a store was armed
    store_path: str | None = None
    #: wall-clock timeout enforcement used ("sigalrm" | "wall-clock" | None)
    timeout_mechanism: str | None = None
    #: per-point timeout limit in seconds (None = unbounded)
    timeout_s: float | None = None

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def succeeded(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def retried(self) -> list[PointOutcome]:
        """Points that needed more than one attempt (seeds recorded)."""
        return [o for o in self.outcomes if o.attempts > 1]

    def payload(self) -> list[dict[str, Any]]:
        """Deterministic merged results, in sweep point order."""
        return [o.payload() for o in self.outcomes]

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`payload`.

        Two runs of the same sweep — any backend, any worker count, any
        crash/resume history — must produce equal digests; the executable
        form of the engine's determinism guarantee.
        """
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_report(self) -> dict[str, Any]:
        """The run as a versioned ``repro.report`` envelope (kind=sweep)."""
        return make_report("sweep", {
            "name": self.name,
            "points": self.payload(),
            "digest": self.digest(),
            "execution": {
                "workers": self.workers,
                "requested_workers": self.requested_workers,
                "effective_workers": self.effective_workers,
                "mode": self.mode,
                "degraded": self.degraded,
                "worker_restarts": self.worker_restarts,
                "cpu_count": self.cpu_count,
                "elapsed_s": self.elapsed_s,
                "failed_points": [o.id for o in self.failed],
                "quarantined": self.quarantined,
                "retried_points": {
                    o.id: {"attempts": o.attempts, "retry_seed": o.retry_seed}
                    for o in self.retried
                },
                "timeout": {
                    "limit_s": self.timeout_s,
                    "mechanism": self.timeout_mechanism,
                },
                "store": None if self.store_path is None else {
                    "path": self.store_path,
                    "point_hits": self.store_hits,
                },
                "wall_ms": {o.id: o.wall_ms for o in self.outcomes},
                "solver_cache": self.cache,
            },
        })

    def write(self, directory: str | Path = ".") -> Path:
        """Persist as ``BENCH_<name>.json``; returns the path written."""
        return write_benchmark(self, directory)


def write_benchmark(result: SweepResult, directory: str | Path = ".") -> Path:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{result.name}.json"
    path.write_text(dump_report(result.to_report()) + "\n")
    return path


def run_sweep(
    sweep: Sweep,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    cache: bool = True,
    out_dir: str | Path | None = None,
    executor: Executor | None = None,
    store: ResultStore | str | Path | None = None,
    resume: bool = False,
    backoff: float = 0.0,
    interrupt_after: int | None = None,
) -> SweepResult:
    """Execute ``sweep`` and merge the outcomes in point order.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` picks ``min(4, cpu_count)``.  ``<= 1``
        runs serially in-process; more run on the
        :class:`~repro.exp.executors.WorkQueueExecutor` (identical results
        by construction).  The only execution knob.
    timeout:
        Per-point wall-clock limit in seconds.  Enforced pre-emptively via
        ``SIGALRM`` where available, otherwise by a watchdog-thread
        deadline; the mechanism used is recorded in the report.  A
        timed-out attempt counts as a failure and is retried like any
        other error.
    retries:
        Extra attempts per failing point before recording the error; each
        attempt's seed is derived deterministically and recorded.
    cache:
        Arm the per-process :class:`SolverCache` memo (disable for
        cold-solve baselines).
    out_dir:
        When given, persist ``BENCH_<name>.json`` there before returning.
    executor:
        An :class:`~repro.exp.executors.Executor` instance to run on
        instead of the one ``workers`` picks (the seam the chaos harness
        and tests use).
    store:
        A :class:`~repro.exp.store.ResultStore` (or its directory path).
        When armed, completed points are durably journaled as they land
        and matching journaled points are replayed instead of executed.
    resume:
        Require a matching journal in ``store`` (raise otherwise) — the
        explicit "continue where the last run died" switch.
    backoff:
        Base seconds for the deterministic jittered exponential retry
        backoff (0 = retry immediately).
    interrupt_after:
        Stop after this many *freshly executed* points have been journaled
        by raising :class:`SweepInterrupted` (testing/CI hook for the
        interrupt → resume → digest-equality cycle).
    """
    requested_workers = workers
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if retries < 0:
        raise SweepError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise SweepError(f"timeout must be positive, got {timeout}")
    if backoff < 0:
        raise SweepError(f"backoff must be >= 0, got {backoff}")
    if interrupt_after is not None and interrupt_after < 1:
        raise SweepError(
            f"interrupt_after must be >= 1, got {interrupt_after}"
        )
    if resume and store is None:
        raise SweepError("resume=True needs a store to resume from")

    total = len(sweep.points)
    runner = PointRunner(
        task=sweep.task, retries=retries, timeout=timeout,
        backoff=backoff, use_cache=cache,
    )
    backend = resolve_executor(executor, workers)

    session: StoreSession | None = None
    if store is not None:
        result_store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        session = result_store.begin(
            sweep.name,
            sweep_fingerprint(sweep, retries, timeout, cache),
            resume=resume,
        )

    completed: dict[int, tuple[PointOutcome, dict[str, Any]]] = (
        dict(session.completed) if session is not None else {}
    )
    executed = 0

    def on_point(index: int, outcome: PointOutcome,
                 stats: dict[str, Any]) -> None:
        nonlocal executed
        if index in completed:
            return  # a re-dispatched twin already landed: exactly-once
        completed[index] = (outcome, stats)
        if session is not None:
            session.record_point(index, outcome, stats)
        executed += 1
        if (
            interrupt_after is not None
            and executed >= interrupt_after
            and len(completed) < total
        ):
            raise StopExecution()

    pending = [
        (i, point) for i, point in enumerate(sweep.points) if i not in completed
    ]
    info = backend._info()
    started = time.perf_counter()
    try:
        if pending:
            info = backend.run(pending, runner, on_point)
    finally:
        if session is not None:
            session.close()
    elapsed = time.perf_counter() - started

    if info["stopped"]:
        raise SweepInterrupted(
            sweep.name, len(completed), total,
            str(session.path) if session is not None else None,
        )
    missing = [i for i in range(total) if i not in completed]
    if missing:  # pragma: no cover - executor contract violation
        raise SweepError(
            f"executor {info['mode']!r} lost point(s) {missing} — "
            "refusing to merge a partial sweep"
        )

    outcomes: list[PointOutcome] = []
    # ``warm_starts`` stays in the report schema (perfbench reads it); the
    # exact solver has no warm starts, so it is always 0
    totals = {"lookups": 0, "hits": 0, "misses": 0, "warm_starts": 0}
    mechanism: str | None = None
    for index in range(total):
        outcome, stats = completed[index]
        outcomes.append(outcome)
        mechanism = mechanism or stats.get("timeout_mechanism")
        for key in totals:
            totals[key] += stats.get(key, 0)
    totals["hit_rate"] = (
        totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0
    )
    totals["enabled"] = cache

    result = SweepResult(
        name=sweep.name,
        outcomes=outcomes,
        workers=workers,
        elapsed_s=elapsed,
        cache=totals,
        requested_workers=requested_workers,
        effective_workers=info["effective_workers"],
        cpu_count=os.cpu_count(),
        mode=info["mode"],
        degraded=info["degraded"],
        worker_restarts=info["worker_restarts"],
        quarantined=list(info["quarantined"]),
        store_hits=session.hits if session is not None else 0,
        store_path=str(session.path) if session is not None else None,
        timeout_mechanism=mechanism,
        timeout_s=timeout,
    )
    if out_dir is not None:
        result.write(out_dir)
    return result
