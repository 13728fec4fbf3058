"""Seeded chaos injection for the sweep engine's recovery machinery.

Mirrors the seeded-plan style of :mod:`repro.sim.faults`: a
:class:`ChaosPlan` is a deterministic, JSON-serialisable list of
:class:`ChaosEvent`\\ s derived from one seed, and a :class:`ChaosMonkey`
executes it against live worker processes — SIGKILLing a worker the moment
it claims a doomed point, or SIGSTOPping it for a fixed nap to exercise
lease-based stall recovery.

The load-bearing assertion (made executable by :func:`run_chaos_sweep` and
the chaos benchmarks/tests) is the engine's crown invariant under fire:

    a sweep completed *through* seeded worker kills and stalls produces a
    :meth:`~repro.exp.engine.SweepResult.digest` **bit-identical** to an
    undisturbed serial run, with zero lost and zero duplicated points.

That holds because chaos only ever destroys *in-flight* work: a killed
worker's point is re-queued and re-run (a pure function of its params and
seed ⇒ the same outcome, whichever worker's memo it meets), and results
commit by atomic rename (a point is either fully published or not at all
— never torn).
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any

from .sweep import SweepError

__all__ = ["ChaosEvent", "ChaosPlan", "ChaosMonkey", "KILL", "STALL", "run_chaos_sweep"]

#: SIGKILL the claiming worker (crash recovery path: reap, requeue, respawn)
KILL = "kill"
#: SIGSTOP the claiming worker for ``stall_s`` (lease / stall recovery path)
STALL = "stall"

_ACTIONS = frozenset({KILL, STALL})


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted misfortune: what happens when ``point`` is claimed."""

    #: index of the point in sweep order
    point: int
    action: str
    #: nap length for STALL events (must stay below the executor lease to
    #: exercise the SIGCONT path; above it to exercise the lease kill)
    stall_s: float = 0.2

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise SweepError(
                f"chaos action must be one of {sorted(_ACTIONS)}, "
                f"got {self.action!r}"
            )
        if self.point < 0:
            raise SweepError(f"chaos point index must be >= 0, got {self.point}")
        if self.stall_s <= 0:
            raise SweepError(f"stall_s must be positive, got {self.stall_s}")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, reproducible set of chaos events (one per point at most)."""

    seed: int
    events: tuple[ChaosEvent, ...]

    @classmethod
    def random(
        cls,
        seed: int,
        point_count: int,
        kill_rate: float = 0.3,
        stall_rate: float = 0.15,
        stall_s: float = 0.2,
    ) -> "ChaosPlan":
        """Derive a plan from ``seed`` alone — same seed, same misfortunes."""
        if point_count < 1:
            raise SweepError(f"point_count must be >= 1, got {point_count}")
        rng = random.Random(seed)
        events = []
        for point in range(point_count):
            roll = rng.random()
            if roll < kill_rate:
                events.append(ChaosEvent(point, KILL))
            elif roll < kill_rate + stall_rate:
                events.append(ChaosEvent(point, STALL, stall_s=stall_s))
        return cls(seed=seed, events=tuple(events))

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form for reports and artifacts."""
        return {
            "seed": self.seed,
            "events": [
                {"point": e.point, "action": e.action, "stall_s": e.stall_s}
                for e in self.events
            ],
        }


@dataclass
class ChaosMonkey:
    """Executes a plan against live workers; keeps an audit log.

    Plugged into :class:`~repro.exp.executors.WorkQueueExecutor` via its
    ``chaos`` parameter; the executor calls :meth:`strike` exactly once per
    point, the first time it reads the claiming worker's pid.
    """

    plan: ChaosPlan
    log: list[dict[str, Any]] = field(default_factory=list)

    def strike(self, point: int, pid: int) -> float | None:
        """Apply the planned event for ``point``; returns a stall nap or None."""
        event = next((e for e in self.plan.events if e.point == point), None)
        if event is None:
            return None
        self.log.append({"point": point, "action": event.action, "pid": pid})
        if event.action == KILL:
            _kill_quietly(pid, signal.SIGKILL)
            return None
        _kill_quietly(pid, signal.SIGSTOP)
        return event.stall_s


def _kill_quietly(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def run_chaos_sweep(
    sweep,
    plan: ChaosPlan,
    workers: int = 2,
    lease_s: float = 15.0,
    store: Any = None,
    **engine_kwargs: Any,
):
    """Run ``sweep`` on the work-queue backend under ``plan``.

    Returns ``(result, monkey)``: the completed :class:`SweepResult` (the
    engine's recovery machinery must finish the run despite the kills and
    stalls) and the monkey whose ``log`` records every strike that fired.
    Callers assert ``result.digest()`` equality against an undisturbed
    serial run — see ``tests/integration/test_sweep_recovery.py`` and
    ``benchmarks/bench_sweep_engine.py``.
    """
    from .engine import run_sweep
    from .executors import WorkQueueExecutor

    monkey = ChaosMonkey(plan=plan)
    executor = WorkQueueExecutor(
        workers=workers,
        lease_s=lease_s,
        chaos=monkey,
        max_restarts=max(8, 2 * len(plan.events) + workers),
    )
    result = run_sweep(
        sweep,
        workers=workers,
        executor=executor,
        store=store,
        **engine_kwargs,
    )
    return result, monkey
