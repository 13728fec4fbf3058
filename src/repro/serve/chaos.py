"""Seeded fault injection for the admission service itself.

The simulator's fault injector (:mod:`repro.sim.faults`) breaks the
*modelled hardware*; this module breaks the *service*: handler crashes at
the worst possible instants and solver stalls that trip deadlines and the
circuit breaker.  The soak harness arms these to prove the service's
exactly-once claims — a crash after commit but before the response is the
canonical double-apply trap, and an idempotent retry must come back with
the recorded answer instead of a second transition.

Crash decisions and solve-stall decisions come from two seeded
:class:`random.Random` streams, both derived from ``seed``.  How many solves
a run makes depends on wall-clock batching and the solver timeout; with one
shared stream every stall draw would shift the crash draws after it.  Kept
apart, the N-th crash-point consultation decides the same way in every run,
so a failing soak run replays its crashes from its seed (the batch worker is
the only consumer of either stream).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

__all__ = ["InjectedCrash", "ServeChaos"]


class InjectedCrash(RuntimeError):
    """Raised by a chaos hook to simulate a handler crash."""


@dataclass
class ServeChaos:
    """Chaos policy for one service instance.

    Parameters
    ----------
    seed:
        Seed from which the crash and the stall RNG streams are derived.
    crash_before:
        Probability a batch handler crashes *before* touching any state
        (clients must see ``internal`` and the state must be unchanged).
    crash_after:
        Probability a batch handler crashes *after* the transition commits
        but before responses are sent (clients must see ``internal``, yet
        an idempotent retry must observe the already-applied transition).
    solve_delay:
        Seconds a stalled solve sleeps (long enough to blow the service's
        ``solver_timeout`` when armed).
    solve_delay_rate:
        Probability any given solve stalls by ``solve_delay``.
    """

    seed: int = 0
    crash_before: float = 0.0
    crash_after: float = 0.0
    solve_delay: float = 0.0
    solve_delay_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_before", "crash_after", "solve_delay_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.solve_delay < 0:
            raise ValueError(f"solve_delay must be >= 0, got {self.solve_delay}")
        self._crash_rng = random.Random(f"{self.seed}:crash")
        self._stall_rng = random.Random(f"{self.seed}:stall")
        self.crashes = 0
        self.stalls = 0

    def crash_point(self, where: str) -> None:
        """Maybe raise :class:`InjectedCrash` at hook point ``where``."""
        p = self.crash_before if where == "pre" else self.crash_after
        if p and self._crash_rng.random() < p:
            self.crashes += 1
            raise InjectedCrash(f"injected handler crash at {where!r}")

    async def maybe_stall_solve(self) -> None:
        """Maybe sleep a solve long enough to trip the breaker."""
        if self.solve_delay_rate and self._stall_rng.random() < self.solve_delay_rate:
            self.stalls += 1
            await asyncio.sleep(self.solve_delay)
