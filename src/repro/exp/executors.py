"""Execution backends for the sweep engine.

The engine hands every backend the same inputs — a list of ``(index,
point)`` jobs plus a picklable :class:`~repro.exp.runner.PointRunner` —
and requires the same contract back:

* call ``on_point(index, outcome, stats)`` **as each point lands** (the
  engine journals it durably before the next point is acknowledged);
* deliver **exactly one** outcome per point index, each computed by
  :meth:`PointRunner.run` (the single shared evaluation loop), so results
  are a pure function of the spec regardless of backend;
* survive dying workers: re-dispatch lost points, quarantine poison
  points instead of looping forever, and degrade to in-process serial
  execution when workers keep dying;
* honour ``on_point`` raising :class:`StopExecution` — stop dispatching,
  tear down, and report ``stopped=True`` (the engine turns this into a
  resumable :class:`~repro.exp.engine.SweepInterrupted`).

Backends
--------

:class:`SerialExecutor`
    Runs points in-process, in order.  The reference semantics, and what
    ``workers=1`` runs.

:class:`WorkQueueExecutor`
    A spawn-safe, file-protocol work queue, and what ``workers > 1`` runs:
    the parent serialises one task file per point into ``tasks/``,
    independent worker *processes* (``python -m repro.exp.worker``) claim
    them by atomic rename into ``claims/`` and commit results by atomic
    rename into ``results/``.  The parent polls, reaps dead workers
    (re-queueing their claims), SIGKILLs workers whose claim lease expired
    (stall recovery), respawns up to a restart budget, quarantines poison
    points and degrades to serial when the worker fleet cannot be kept
    alive.  Because the protocol is plain files + atomic renames, it
    tolerates SIGKILL at *any* instant: the chaos harness
    (:mod:`repro.exp.chaos`) leans on exactly this.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from abc import ABC, abstractmethod
from pathlib import Path
from tempfile import mkdtemp
from typing import Any, Callable

from .runner import PointOutcome, PointRunner
from .sweep import SweepError, SweepPoint

__all__ = [
    "Executor",
    "SerialExecutor",
    "WorkQueueExecutor",
    "StopExecution",
    "resolve_executor",
]

#: jobs are ``(index, point)``; outcomes flow back through on_point
Job = tuple[int, SweepPoint]
OnPoint = Callable[[int, PointOutcome, dict[str, Any]], None]


class StopExecution(Exception):
    """Raised *by the on_point callback* to stop an executor mid-run."""


class Executor(ABC):
    """One way of evaluating points; see the module docstring contract."""

    #: mode string recorded in the report execution section
    name = "abstract"

    @abstractmethod
    def run(
        self, jobs: list[Job], runner: PointRunner, on_point: OnPoint
    ) -> dict[str, Any]:
        """Evaluate every job; returns the execution-info dict."""

    def _info(self, **overrides: Any) -> dict[str, Any]:
        info = {
            "mode": self.name,
            "effective_workers": 1,
            "degraded": False,
            "worker_restarts": 0,
            "quarantined": [],
            "stopped": False,
        }
        info.update(overrides)
        return info


def resolve_executor(executor: "Executor | None", workers: int) -> "Executor":
    """The engine's backend: ``executor`` itself, else ``workers`` decides.

    One worker runs in-process (:class:`SerialExecutor`); more run on the
    :class:`WorkQueueExecutor`.
    """
    if executor is None:
        return SerialExecutor() if workers <= 1 else WorkQueueExecutor(workers)
    if not isinstance(executor, Executor):
        raise TypeError(
            f"executor must be an Executor instance or None, got {executor!r}; "
            "pass workers=N to choose between serial and parallel"
        )
    return executor


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------


class SerialExecutor(Executor):
    """In-process, in-order evaluation — the reference backend."""

    name = "serial"

    def run(self, jobs, runner, on_point):
        for index, point in sorted(jobs):
            outcome, stats = runner.run(point)
            try:
                on_point(index, outcome, stats)
            except StopExecution:
                return self._info(stopped=True)
        return self._info()


# ---------------------------------------------------------------------------
# spawn-safe file-protocol work queue
# ---------------------------------------------------------------------------

#: queue sub-directories; a point lives in exactly one of tasks/claims at a
#: time (moved by atomic rename), results/ is append-only commit space
_TASKS, _CLAIMS, _RESULTS = "tasks", "claims", "results"
_STOP_SENTINEL = "stop"
_RUNNER_FILE = "runner.pkl"
#: written by a worker that cannot unpickle ``runner.pkl``; holds the error
_RUNNER_ERROR_FILE = "runner-error"
#: present only when a ChaosMonkey is armed: workers hold this many seconds
#: between claiming a point and executing it, guaranteeing the parent
#: observes the claim and can strike mid-point deterministically
_CHAOS_HOLD_FILE = "chaos-hold"


def _task_name(index: int) -> str:
    return f"point-{index:05d}.pkl"


def _task_index(name: str) -> int:
    return int(name.split("-")[1].split(".")[0])


class WorkQueueExecutor(Executor):
    """Multi-process work queue over an atomic-rename file protocol.

    Spawn-safe by construction: workers are independent interpreter
    processes started with ``subprocess`` (no inherited locks, no fork
    hazards) that speak to the parent exclusively through files —
    ``os.rename`` is the commit primitive for both claiming work and
    publishing results, so a SIGKILL at any instant leaves the queue in a
    state the parent provably recovers from.

    Parameters
    ----------
    workers: worker processes to keep alive; a run starts at most one per
        point.
    lease_s: a claim older than this is a stalled worker; the parent
        SIGKILLs it and re-queues the point.
    max_restarts: total replacement workers the parent may spawn before
        declaring the fleet unsustainable and degrading to serial.
    quarantine_after: per-point worker-death count that triggers the
        point's last run, alone in a process of its own.
    poll_s: parent poll interval.
    chaos: optional :class:`repro.exp.chaos.ChaosMonkey` consulted when a
        claim's owner is first read — test-only fault injection, never
        armed in production runs.
    """

    name = "work-queue"

    def __init__(
        self,
        workers: int = 2,
        lease_s: float = 30.0,
        max_restarts: int = 4,
        quarantine_after: int = 2,
        poll_s: float = 0.02,
        chaos: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.lease_s = lease_s
        self.max_restarts = max_restarts
        self.quarantine_after = quarantine_after
        self.poll_s = poll_s
        self.chaos = chaos

    # -- protocol helpers (parent side) ------------------------------------

    def _setup(self, root: Path, jobs: list[Job], runner: PointRunner) -> None:
        for sub in (_TASKS, _CLAIMS, _RESULTS):
            (root / sub).mkdir(parents=True, exist_ok=True)
        with (root / _RUNNER_FILE).open("wb") as fh:
            pickle.dump(runner, fh)
        if self.chaos is not None:
            (root / _CHAOS_HOLD_FILE).write_text(str(max(0.25, 10 * self.poll_s)))
        for index, point in jobs:
            target = root / _TASKS / _task_name(index)
            tmp = target.with_suffix(".tmp")
            with tmp.open("wb") as fh:
                pickle.dump(point, fh)
            os.replace(tmp, target)

    def _spawn_worker(self, root: Path) -> subprocess.Popen:
        # workers must be able to import repro from a bare interpreter:
        # prepend this package's root to PYTHONPATH (spawn-safe, no fork)
        pkg_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            pkg_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else pkg_root
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.exp.worker", str(root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def run(self, jobs, runner, on_point):
        root = Path(mkdtemp(prefix="repro-queue-"))
        try:
            return self._run(root, jobs, runner, on_point)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _run(self, root: Path, jobs, runner, on_point):
        self._setup(root, jobs, runner)
        by_index = dict(jobs)
        pending = set(by_index)
        crashes: dict[int, int] = {}
        quarantined: list[dict[str, Any]] = []
        restarts = 0
        degraded = False
        stopped = False
        procs = [
            self._spawn_worker(root) for _ in range(min(self.workers, len(jobs)))
        ]
        claim_seen: dict[int, float] = {}
        chaos_done: set[int] = set()
        stalled: dict[int, float] = {}  # pid -> resume_at (monotonic)
        try:
            while pending and not stopped:
                progressed = False
                # 1. results commit first: a dead worker that already
                # published its point still counts, its claim is garbage
                for name in sorted(os.listdir(root / _RESULTS)):
                    if not name.endswith(".pkl"):
                        continue
                    index = _task_index(name)
                    if index not in pending:
                        continue
                    with (root / _RESULTS / name).open("rb") as fh:
                        outcome, stats = pickle.load(fh)
                    pending.discard(index)
                    claim_seen.pop(index, None)
                    progressed = True
                    try:
                        on_point(index, outcome, stats)
                    except StopExecution:
                        stopped = True
                        break
                if stopped:
                    break
                now = time.monotonic()
                # 2. resume chaos-stalled workers whose nap is over
                for pid in [p for p, t in stalled.items() if now >= t]:
                    stalled.pop(pid)
                    _signal_quietly(pid, signal.SIGCONT)
                # 3. observe claims: lease enforcement + chaos injection
                claims = self._read_claims(root)
                for index, (pid, _claimed_at) in claims.items():
                    if index not in pending:
                        continue  # result already committed; claim is litter
                    # strike on the first sighting of an owner, even when the
                    # orphan pass below already saw the claim without one
                    if self.chaos is not None and index not in chaos_done:
                        chaos_done.add(index)
                        nap = self.chaos.strike(index, pid)
                        if nap:
                            stalled[pid] = now + nap
                    if now - claim_seen.setdefault(index, now) > self.lease_s:
                        # stalled worker: kill it; reap-and-requeue below
                        _signal_quietly(pid, signal.SIGKILL)
                        claim_seen.pop(index, None)
                # a claim whose owner file never appeared is a worker that
                # died between the rename and the owner write: requeue it
                # once it has clearly outlived that microscopic window
                for index in self._orphan_claims(root, claims):
                    if index not in pending:
                        continue
                    first = claim_seen.setdefault(index, now)
                    if now - first > self.lease_s:
                        self._requeue(root, index)
                        claim_seen.pop(index, None)
                        crashes[index] = crashes.get(index, 0) + 1
                # 4. reap dead workers, requeue their claims, respawn
                live: list[subprocess.Popen] = []
                for proc in procs:
                    if proc.poll() is None:
                        live.append(proc)
                        continue
                    self._raise_if_runner_unloadable(root, runner)
                    for index, (pid, _t) in self._read_claims(root).items():
                        if pid == proc.pid:
                            self._requeue(root, index)
                            claim_seen.pop(index, None)
                            crashes[index] = crashes.get(index, 0) + 1
                    if restarts < self.max_restarts:
                        restarts += 1
                        live.append(self._spawn_worker(root))
                procs = live
                # 5. a point that keeps killing workers gets one last run
                for index in [
                    i for i in sorted(pending)
                    if crashes.get(i, 0) >= self.quarantine_after
                ]:
                    self._steal_task(root, index)
                    outcome, stats = self._last_run(
                        root, runner, index, by_index[index], crashes[index]
                    )
                    if outcome.quarantined:
                        quarantined.append({
                            "id": outcome.id, "failures": crashes[index],
                            "error": outcome.error,
                        })
                    pending.discard(index)
                    progressed = True
                    try:
                        on_point(index, outcome, stats)
                    except StopExecution:
                        stopped = True
                        break
                if stopped:
                    break
                # 6. no workers left and no restart budget: degrade
                if pending and not procs:
                    degraded = True
                    for index in sorted(pending):
                        self._steal_task(root, index)
                        outcome, stats = runner.run(by_index[index])
                        pending.discard(index)
                        try:
                            on_point(index, outcome, stats)
                        except StopExecution:
                            stopped = True
                            break
                    break
                if not progressed:
                    time.sleep(self.poll_s)
        finally:
            (root / _STOP_SENTINEL).touch()
            for pid in stalled:
                _signal_quietly(pid, signal.SIGCONT)
            for proc in procs:
                if proc.poll() is None:
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        return self._info(
            effective_workers=min(self.workers, max(1, len(jobs))),
            degraded=degraded,
            worker_restarts=restarts,
            quarantined=quarantined,
            stopped=stopped,
        )

    def _last_run(
        self,
        root: Path,
        runner: PointRunner,
        index: int,
        point: SweepPoint,
        failures: int,
    ) -> tuple[PointOutcome, dict[str, Any]]:
        """Run a poison-suspect point once more, alone, in its own worker.

        The worker serves a private one-point queue, so the point can spend
        neither the main queue's restart budget nor the parent, and no
        claim lease polices it: a slow but healthy point completes here.
        Only a run that dies or wedges makes the point a quarantined
        outcome — attributed, never silently dropped.
        """
        solo = root / f"last-{index:05d}"
        self._setup(solo, [(index, point)], runner)
        (solo / _STOP_SENTINEL).touch()
        # the worker's own timeout guard should fire first; the 5 s are the
        # belt for a point that wedges its process so hard no signal lands
        budget = None if runner.timeout is None else runner.timeout + 5.0
        proc = self._spawn_worker(solo)
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            error = (
                "quarantined: point wedged its last run past "
                f"{budget}s (timeout mechanism never fired)"
            )
        else:
            try:
                with (solo / _RESULTS / _task_name(index)).open("rb") as fh:
                    return pickle.load(fh)
            except OSError:
                error = (
                    f"quarantined: point crashed its worker ({failures} "
                    "worker death(s), then again in its last run, alone)"
                )
        return PointOutcome(
            id=point.id, params=dict(point.params), seed=point.seed,
            value=None, error=error, attempts=failures,
        ), {}

    def _raise_if_runner_unloadable(self, root: Path, runner: PointRunner) -> None:
        """Fail fast when a worker could not load the task: respawns cannot help."""
        try:
            error = (root / _RUNNER_ERROR_FILE).read_text()
        except OSError:
            return
        task = runner.task
        module = getattr(task, "__module__", "?")
        name = getattr(task, "__qualname__", repr(task))
        raise SweepError(
            f"sweep task {module}.{name} cannot be loaded by a fresh worker "
            f"process ({error}); define it in an importable module, or use "
            "workers=1"
        )

    def _orphan_claims(
        self, root: Path, claims: dict[int, tuple[int, float]]
    ) -> list[int]:
        """Claim files present with no readable owner sidecar."""
        return [
            _task_index(name) for name in os.listdir(root / _CLAIMS)
            if name.endswith(".pkl") and _task_index(name) not in claims
        ]

    def _read_claims(self, root: Path) -> dict[int, tuple[int, float]]:
        """Claims as ``{point_index: (pid, claimed_at)}`` (tolerant scan)."""
        claims: dict[int, tuple[int, float]] = {}
        for name in os.listdir(root / _CLAIMS):
            if not name.endswith(".owner"):
                continue
            try:
                with (root / _CLAIMS / name).open("r") as fh:
                    owner = fh.read().split()
                claims[_task_index(name)] = (int(owner[0]), float(owner[1]))
            except (OSError, ValueError, IndexError):
                continue  # worker mid-write or just died; next poll settles it
        return claims

    def _requeue(self, root: Path, index: int) -> None:
        """Move a dead worker's claim back into the task queue (atomic)."""
        name = _task_name(index)
        try:
            os.rename(root / _CLAIMS / name, root / _TASKS / name)
        except OSError:
            return  # result already committed or another pass re-queued it
        _unlink_quietly(root / _CLAIMS / (name + ".owner"))

    def _steal_task(self, root: Path, index: int) -> None:
        """Pull a point out of the queue so no worker picks it up again."""
        name = _task_name(index)
        _unlink_quietly(root / _TASKS / name)
        _unlink_quietly(root / _CLAIMS / name)
        _unlink_quietly(root / _CLAIMS / (name + ".owner"))


def _signal_quietly(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
