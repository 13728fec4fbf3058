"""Per-point execution: contexts, outcomes, retries, timeouts.

This module is the part of the engine that actually *calls the task*.  It
is deliberately free of any executor machinery so that both execution
backends (:mod:`repro.exp.executors`) and the work-queue worker process
(:mod:`repro.exp.worker`) share one code path — a point evaluated
in-process or in a queue worker produces byte-identical outcomes by
construction.

Guard rails per point:

* **retries** — a failing point is re-attempted up to ``retries`` extra
  times; every attempt re-derives its seed deterministically
  (``point.seed + attempt``) and the seed of the decisive attempt is
  recorded as :attr:`PointOutcome.retry_seed`, so a retried run remains
  reproducible and attributable.
* **seeded backoff** — between attempts the runner sleeps an exponentially
  growing, deterministically jittered delay derived from the point seed
  (never from wall-clock randomness), keeping retry schedules reproducible.
* **timeouts** — a wall-clock budget per attempt.  On platforms with
  ``SIGALRM`` (and when running on the main thread) the budget is enforced
  pre-emptively via ``setitimer``; everywhere else the attempt runs in a
  watchdog thread and the caller stops waiting at the deadline (the stuck
  thread is abandoned as a daemon — bounded *wait*, not bounded *work*).
  Which mechanism enforced the budget is recorded in the point stats and
  surfaced in the report's execution section.
* **per-point cleanup** — a finished simulation's object graph is cyclic
  (parked generator frames, components, the simulator and its signals), so
  only the cyclic collector frees it.  The runner collects after every
  point so that garbage never piles up across points (DESIGN.md §8), with
  the objects that predate the point frozen out of the collection.
"""

from __future__ import annotations

import gc
import random
import signal
import threading
import time
from dataclasses import astuple, dataclass
from typing import Any, Callable

from .cache import SolverCache
from .sweep import SweepPoint

__all__ = [
    "PointContext",
    "PointOutcome",
    "PointRunner",
    "TIMEOUT_SIGALRM",
    "TIMEOUT_WALL_CLOCK",
    "retry_delay",
]

#: pre-emptive in-process timeout via ``signal.setitimer`` (POSIX main thread)
TIMEOUT_SIGALRM = "sigalrm"
#: portable fallback: watchdog thread + wall-clock deadline on the join
TIMEOUT_WALL_CLOCK = "wall-clock"


@dataclass(frozen=True)
class PointContext:
    """What a task sees besides its params: seed, attempt, solver cache."""

    seed: int
    attempt: int = 0
    cache: SolverCache | None = None


@dataclass(frozen=True)
class PointOutcome:
    """Result of one point: either a ``value`` dict or an ``error`` string."""

    id: str
    params: dict[str, Any]
    seed: int
    value: dict[str, Any] | None
    error: str | None = None
    attempts: int = 1
    #: seed of the decisive (last) attempt when the point was retried,
    #: ``None`` for first-attempt outcomes — makes retried runs attributable
    retry_seed: int | None = None
    wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def quarantined(self) -> bool:
        return self.error is not None and self.error.startswith("quarantined")

    def payload(self) -> dict[str, Any]:
        """The deterministic slice (no timings) used for digests."""
        return {
            "id": self.id,
            "params": self.params,
            "seed": self.seed,
            "value": self.value,
            "error": self.error,
            "attempts": self.attempts,
            "retry_seed": self.retry_seed,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any], wall_ms: float = 0.0) -> "PointOutcome":
        """Rebuild an outcome from its journaled :meth:`payload` dict."""
        return cls(
            id=payload["id"],
            params=dict(payload["params"]),
            seed=payload["seed"],
            value=payload["value"],
            error=payload["error"],
            attempts=payload.get("attempts", 1),
            retry_seed=payload.get("retry_seed"),
            wall_ms=wall_ms,
        )


def retry_delay(backoff: float, seed: int, attempt: int) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt``.

    ``backoff * 2**(attempt-1)`` scaled into ``[0.5, 1.0)`` by a PRNG seeded
    from the point seed and the attempt number — two runs of the same sweep
    sleep the same schedule.
    """
    if backoff <= 0.0:
        return 0.0
    rng = random.Random((seed << 8) ^ attempt)
    return backoff * (2 ** (attempt - 1)) * (0.5 + rng.random() / 2)


@dataclass(frozen=True)
class PointRunner:
    """Everything needed to evaluate a point, picklable.

    Executors ship a ``PointRunner`` to whatever process ends up evaluating
    points; :meth:`run` is the single shared evaluation loop.  The runner
    owns the Algorithm 1 memo of its process: one per runner, kept across
    points, and never pickled — an unpickled runner (one per queue worker)
    starts a memo of its own.
    """

    task: Callable[..., dict]
    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.0
    use_cache: bool = True

    def __post_init__(self) -> None:
        memo = SolverCache() if self.use_cache else None
        object.__setattr__(self, "_memo", memo)

    def __reduce__(self):
        return type(self), astuple(self)

    def run(self, point: SweepPoint) -> tuple[PointOutcome, dict[str, Any]]:
        """Evaluate ``point``; returns its outcome and its memo counter deltas.

        The point's garbage is collected before it returns; freezing the
        objects that exist on entry keeps the imported program out of that
        collection.
        """
        memo = self._memo
        before = (memo.hits, memo.misses) if memo is not None else (0, 0)
        value: dict[str, Any] | None = None
        error: str | None = None
        mechanism: str | None = None
        attempts = 0
        gc.freeze()
        try:
            t0 = time.perf_counter()
            for attempt in range(self.retries + 1):
                attempts = attempt + 1
                if attempt > 0:
                    delay = retry_delay(self.backoff, point.seed, attempt)
                    if delay > 0.0:
                        time.sleep(delay)
                ctx = PointContext(
                    seed=point.seed + attempt, attempt=attempt, cache=memo
                )
                try:
                    value, mechanism = _call_with_timeout(
                        self.task, point, ctx, self.timeout
                    )
                    error = None
                    break
                except _PointTimeout as err:
                    mechanism = err.mechanism
                    error = f"timeout after {self.timeout}s ({err.mechanism})"
                except Exception as err:
                    error = f"{type(err).__name__}: {err}"
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if error is None and not isinstance(value, dict):
                error = f"task returned {type(value).__name__}, expected a dict"
                value = None
            outcome = PointOutcome(
                id=point.id, params=dict(point.params), seed=point.seed,
                value=value, error=error, attempts=attempts,
                retry_seed=point.seed + attempts - 1 if attempts > 1 else None,
                wall_ms=wall_ms,
            )
            gc.collect()
        finally:
            gc.unfreeze()
        stats: dict[str, Any] = {}
        if memo is not None:
            hits, misses = memo.hits - before[0], memo.misses - before[1]
            stats = {"lookups": hits + misses, "hits": hits, "misses": misses}
        if self.timeout is not None:
            stats["timeout_mechanism"] = mechanism or _pick_mechanism()
        return outcome, stats


class _PointTimeout(Exception):
    """A point exceeded its wall-clock budget."""

    def __init__(self, mechanism: str = TIMEOUT_SIGALRM) -> None:
        super().__init__(mechanism)
        self.mechanism = mechanism


def _pick_mechanism() -> str:
    """Which timeout enforcement this thread/platform can use."""
    if (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    ):
        return TIMEOUT_SIGALRM
    return TIMEOUT_WALL_CLOCK


def _call_with_timeout(
    task: Callable[..., dict],
    point: SweepPoint,
    ctx: PointContext,
    timeout: float | None,
) -> tuple[dict[str, Any], str | None]:
    """Call ``task`` under ``timeout``; returns ``(value, mechanism)``.

    ``mechanism`` is ``None`` when no timeout was requested, otherwise the
    enforcement that guarded the call (:data:`TIMEOUT_SIGALRM` or
    :data:`TIMEOUT_WALL_CLOCK`).
    """
    if timeout is None:
        return task(dict(point.params), ctx), None
    if _pick_mechanism() == TIMEOUT_WALL_CLOCK:
        return _call_wall_clock(task, point, ctx, timeout), TIMEOUT_WALL_CLOCK
    # SIGALRM-based guard: only usable from a process's main thread, which
    # is where queue workers, the last run and the serial path run points
    def _alarm(signum, frame):
        raise _PointTimeout(TIMEOUT_SIGALRM)

    previous = signal.signal(signal.SIGALRM, _alarm)
    started = time.monotonic()
    # setitimer returns the *old* timer; an outer alarm (e.g. a caller's own
    # watchdog) must be re-armed with its remaining budget, not wiped to 0.0
    outer_delay, outer_interval = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return task(dict(point.params), ctx), TIMEOUT_SIGALRM
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay > 0.0:
            remaining = outer_delay - (time.monotonic() - started)
            # an already-overdue outer timer still must fire: arm the minimum
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


def _call_wall_clock(
    task: Callable[..., dict],
    point: SweepPoint,
    ctx: PointContext,
    timeout: float,
) -> dict[str, Any]:
    """Portable fallback: run the attempt in a watchdog thread.

    The caller stops *waiting* at the deadline; a genuinely stuck attempt
    keeps its daemon thread (abandoned, reaped at process exit).  This
    bounds how long a sweep can block on one point everywhere ``SIGALRM``
    is unavailable — non-main threads, non-POSIX platforms — instead of
    silently running unbounded.
    """
    box: dict[str, Any] = {}

    def _invoke() -> None:
        try:
            box["value"] = task(dict(point.params), ctx)
        except BaseException as err:  # re-raised on the waiting thread
            box["error"] = err

    worker = threading.Thread(
        target=_invoke, name=f"point-{point.id}", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise _PointTimeout(TIMEOUT_WALL_CLOCK)
    if "error" in box:
        raise box["error"]
    return box["value"]
