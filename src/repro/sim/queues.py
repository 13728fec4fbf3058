"""Blocking bounded queues for simulated processes.

Two primitives are provided:

* :class:`FifoQueue` — a bounded FIFO of tokens; ``put`` blocks when full and
  ``get`` blocks when empty.  This models the hardware FIFOs in network
  interfaces and the software C-FIFOs at the level of abstraction the
  dataflow analysis uses (a buffer of a fixed capacity).
* :class:`Signal` — a counting semaphore used for credit-based flow control
  and for the exit-gateway → entry-gateway "pipeline idle" notification.

Both are fair: waiters are served in arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .kernel import Event, SimulationError, Simulator, _ready

__all__ = ["FifoQueue", "Signal"]


class FifoQueue:
    """A bounded FIFO buffer with blocking put/get.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of tokens held; must be positive.
    name:
        Optional label used in error messages and traces.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fifo") -> None:
        if capacity <= 0:
            raise SimulationError(f"FIFO capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        self._items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0
        self.total_got = 0

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def level(self) -> int:
        """Number of tokens currently buffered."""
        return len(self._items)

    @property
    def space(self) -> int:
        """Free slots currently available."""
        return self.capacity - len(self._items)

    # -- operations --------------------------------------------------------
    def _purge_getters(self) -> None:
        while self._getters and self._getters[0]._cancelled:
            self._getters.popleft()

    def _purge_putters(self) -> None:
        while self._putters and self._putters[0][0]._cancelled:
            self._putters.popleft()

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has been accepted."""
        self._purge_getters()
        if self._getters and not self._items:
            # Hand over directly to the longest-waiting getter.
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            return _ready(self.sim)
        if len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            return _ready(self.sim)
        ev = Event(self.sim)
        self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event that fires with the next token."""
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            ev = _ready(self.sim, item)
            self._drain_putters()
            return ev
        ev = Event(self.sim)
        self._getters.append(ev)
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the FIFO is full."""
        self._purge_getters()
        if self._getters and not self._items:
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            return True
        if len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            return True
        return False

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            self._drain_putters()
            return True, item
        return False, None

    def _drain_putters(self) -> None:
        self._purge_putters()
        while self._putters and len(self._items) < self.capacity:
            ev, item = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            ev.succeed()
            self._purge_putters()


class Signal:
    """A counting semaphore with blocking acquire of N units.

    Used to model hardware credits (one unit per FIFO slot at the consumer)
    and block-level notifications between gateways.
    """

    def __init__(self, sim: Simulator, initial: int = 0, name: str = "signal") -> None:
        if initial < 0:
            raise SimulationError(f"initial signal count must be >= 0, got {initial}")
        self.sim = sim
        self.name = name
        self._count = int(initial)
        self._waiters: deque[tuple[Event, int]] = deque()

    @property
    def count(self) -> int:
        """Units currently available."""
        return self._count

    def _purge_waiters(self) -> None:
        while self._waiters and self._waiters[0][0]._cancelled:
            self._waiters.popleft()

    def release(self, units: int = 1) -> None:
        """Add ``units`` and wake waiters whose demand is now met (in order)."""
        if units <= 0:
            raise SimulationError(f"release units must be positive, got {units}")
        self._count += units
        # FIFO service discipline: head-of-line waiter must be satisfiable.
        self._purge_waiters()
        while self._waiters and self._waiters[0][1] <= self._count:
            ev, need = self._waiters.popleft()
            self._count -= need
            ev.succeed(need)
            self._purge_waiters()

    def acquire(self, units: int = 1) -> Event:
        """Return an event firing once ``units`` are granted to the caller."""
        if units <= 0:
            raise SimulationError(f"acquire units must be positive, got {units}")
        self._purge_waiters()
        if not self._waiters and self._count >= units:
            self._count -= units
            return _ready(self.sim, units)
        ev = Event(self.sim)
        self._waiters.append((ev, units))
        return ev

    def try_acquire(self, units: int = 1) -> bool:
        """Non-blocking acquire; only succeeds when no one is queued ahead."""
        if units <= 0:
            raise SimulationError(f"acquire units must be positive, got {units}")
        self._purge_waiters()
        if not self._waiters and self._count >= units:
            self._count -= units
            return True
        return False
