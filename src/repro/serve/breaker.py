"""Circuit breaker around the admission service's injected solvers.

Algorithm 1 solves exactly and fast, inline, so the default service never
consults the breaker.  A service built with a custom ``solver=`` callable
(a remote solver, a test double) or with chaos solve stalls armed runs
that solve under a timeout, and the breaker keeps a run of timeouts or
:class:`SolverError` failures from turning into a convoy: after
``failure_threshold`` consecutive failures it *opens* and the service
answers from the exact in-process solver (labelled ``"closed-form"``)
instead of queueing more doomed calls.  After a seeded-jitter cooldown the
breaker goes *half-open* and lets exactly one probe solve through; a probe
success closes it, a probe failure re-opens it with a fresh jitter draw.

The jitter is drawn from a seeded :class:`random.Random` so a fleet of
services tripped by the same incident does not re-probe in lockstep, yet a
given (seed, failure history) replays deterministically — the same stance
as the seeded retry backoff in :mod:`repro.exp.runner`.

Infeasibility is **not** a failure: a solver that answers "no block size
works" has done its job; only timeouts and solver errors count against the
breaker.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

__all__ = ["CircuitBreaker", "SolverError", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class SolverError(RuntimeError):
    """Raised by an injected solver that cannot answer (a breaker failure)."""


class CircuitBreaker:
    """Consecutive-failure breaker with seeded half-open probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    cooldown:
        Seconds the breaker stays open before allowing a probe.
    jitter:
        Upper bound of the uniform extra cooldown drawn per trip from the
        seeded RNG (de-synchronises probe storms).
    seed:
        Seed of the jitter RNG; a fixed seed replays deterministically.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        jitter: float = 1.0,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0 or jitter < 0:
            raise ValueError("cooldown and jitter must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.jitter = jitter
        self._clock = clock
        self._rng = random.Random(seed)
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._retry_at = 0.0
        self._probe_inflight = False
        #: lifetime counters, surfaced through ``stats()``
        self.trips = 0
        self.probes = 0
        self.failures = 0
        self.successes = 0

    # -- state -----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state; an open breaker past its cooldown reads half-open."""
        if self._state == OPEN and self._clock() >= self._retry_at:
            self._state = HALF_OPEN
            self._probe_inflight = False
        return self._state

    @property
    def is_open(self) -> bool:
        """True when the exact solver must not be tried (open, or half-open
        with the single probe slot taken)."""
        state = self.state
        if state == CLOSED:
            return False
        if state == OPEN:
            return True
        return self._probe_inflight

    def begin_probe(self) -> bool:
        """Claim the half-open probe slot; at most one caller wins.

        In the closed state every caller may solve, so this returns True
        without claiming anything.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            self.probes += 1
            return True
        return False

    # -- outcomes --------------------------------------------------------
    def record_success(self) -> None:
        """A solve completed (feasible *or* provably infeasible)."""
        self.successes += 1
        self._consecutive_failures = 0
        self._probe_inflight = False
        self._state = CLOSED

    def record_failure(self) -> None:
        """A solve timed out or errored."""
        self.failures += 1
        self._consecutive_failures += 1
        was_half_open = self.state == HALF_OPEN
        self._probe_inflight = False
        if was_half_open or self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self.trips += 1
        self._opened_at = self._clock()
        self._retry_at = self._opened_at + self.cooldown \
            + self._rng.uniform(0.0, self.jitter)

    def stats(self) -> dict[str, Any]:
        """JSON-friendly snapshot for status responses and reports."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "trips": self.trips,
            "probes": self.probes,
            "failures": self.failures,
            "successes": self.successes,
        }
