"""Processor tiles (paper Section IV-A).

A processor tile bundles a MicroBlaze-class core (modelled by a
:class:`~repro.arch.scheduler.BudgetScheduler`), its ring station, and the
software C-FIFO endpoints of the tasks it hosts.  Caches/local memories are
abstracted: task compute times are given directly in cycles, matching how
the paper's analysis consumes worst-case execution times.
"""

from __future__ import annotations

from ..sim import Simulator, Tracer
from .cfifo import CFifo
from .ring import DualRing
from .scheduler import BudgetScheduler, TaskSpec

__all__ = ["ProcessorTile"]


class ProcessorTile:
    """A RISC core + scheduler attached to a ring station."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        station: int,
        ring: DualRing,
        quantum: int = 64,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.station = station
        self.ring = ring
        # the tile emits nothing itself; its scheduler and C-FIFOs each
        # decide whether to hold the tracer
        self.tracer = tracer
        self.scheduler = BudgetScheduler(sim, name=f"{name}.cpu", quantum=quantum,
                                         tracer=tracer)
        self._fifos: list[CFifo] = []

    def add_task(self, spec: TaskSpec) -> None:
        """Register a task on this tile's scheduler."""
        self.scheduler.add_task(spec)

    def start(self) -> None:
        """Boot the tile (start its scheduler)."""
        self.scheduler.start()

    def fifo_to(
        self,
        other: "ProcessorTile | int",
        capacity: int,
        name: str | None = None,
    ) -> CFifo:
        """Create a software C-FIFO from this tile to another tile/station."""
        dst = other.station if isinstance(other, ProcessorTile) else int(other)
        fifo = CFifo(
            self.sim, self.ring, self.station, dst, capacity,
            name=name or f"{self.name}->#{dst}", tracer=self.tracer,
        )
        self._fifos.append(fifo)
        return fifo
