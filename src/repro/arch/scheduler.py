"""Priority-based budget scheduler (Steine/Bekooij/Wiggers [18]; Sec. IV-A).

Tasks on a processor tile are "governed by a real-time budget scheduler":
each task owns a *budget* of processor cycles that is replenished every
*period*; among tasks with remaining budget, the highest priority runs.
This bounds the interference any task suffers, which is what makes software
tasks expressible in the dataflow model.

Tasks are Python generators yielding commands:

* ``Compute(cycles)`` — consume processor time (budget-accounted,
  preemptible at slice granularity),
* ``Get(fifo)`` — blocking read from a :class:`~repro.arch.cfifo.CFifo`
  (the wait consumes neither budget nor processor),
* ``Put(fifo, value)`` — blocking write,
* ``Sleep(cycles)`` — wall-clock wait off the processor.

The model preempts at command/slice boundaries (``quantum`` cycles inside a
long ``Compute``); a fully cycle-preemptive processor would only move
preemption points earlier, so budget guarantees derived here are
conservative for the tasks of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..sim import SimulationError, Simulator, Tracer

__all__ = ["Compute", "Get", "Put", "Sleep", "TaskSpec", "BudgetScheduler"]


@dataclass(frozen=True)
class Compute:
    """Consume ``cycles`` of processor time under budget accounting."""

    cycles: int


@dataclass(frozen=True)
class Get:
    """Blocking read; the command's result is the word read."""

    fifo: Any


@dataclass(frozen=True)
class Put:
    """Blocking write of ``value``."""

    fifo: Any
    value: Any


@dataclass(frozen=True)
class Sleep:
    """Leave the processor for ``cycles`` (e.g. waiting for a timer)."""

    cycles: int


@dataclass(frozen=True)
class TaskSpec:
    """Static description of a scheduled task."""

    name: str
    factory: Callable[[], Generator]
    priority: int = 0          # lower value = higher priority
    budget: int = 10**9        # cycles per period
    period: int = 10**9        # replenishment period

    def __post_init__(self) -> None:
        if self.budget < 1 or self.period < 1:
            raise SimulationError(f"task {self.name!r}: budget/period must be >= 1")


class _Task:
    __slots__ = (
        "spec", "gen", "budget_left", "blocked", "finished",
        "pending_value", "compute_left", "executed_cycles", "commands_done",
    )

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.gen = spec.factory()
        self.budget_left = spec.budget
        self.blocked = False
        self.finished = False
        self.pending_value: Any = None
        self.compute_left = 0
        self.executed_cycles = 0
        self.commands_done = 0

    @property
    def runnable(self) -> bool:
        return not self.finished and not self.blocked and (
            self.compute_left == 0 or self.budget_left > 0
        )


class BudgetScheduler:
    """One processor's scheduler; create, add tasks, then ``start()``."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        quantum: int = 64,
        tracer: Tracer | None = None,
    ) -> None:
        if quantum < 1:
            raise SimulationError("scheduler quantum must be >= 1 cycle")
        self.sim = sim
        self.name = name
        self.quantum = int(quantum)
        self.tracer = tracer if tracer and tracer.keeps("task_done") else None
        self._tasks: list[_Task] = []
        self._wake = sim.event()
        self._started = False
        self.busy_cycles = 0

    # -- setup ------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> None:
        if self._started:
            raise SimulationError("cannot add tasks after start()")
        if any(t.spec.name == spec.name for t in self._tasks):
            raise SimulationError(f"duplicate task name {spec.name!r}")
        self._tasks.append(_Task(spec))

    def start(self) -> None:
        if self._started:
            raise SimulationError("scheduler already started")
        if not self._tasks:
            raise SimulationError("no tasks to schedule")
        self._started = True
        for task in self._tasks:
            if task.spec.period < 10**9:
                self.sim.process(self._replenisher(task), name=f"replenish:{task.spec.name}")
        self.sim.process(self._run(), name=f"sched:{self.name}")

    # -- introspection ------------------------------------------------------
    def task_stats(self) -> dict[str, dict[str, int]]:
        """Per-task executed cycles and completed commands."""
        return {
            t.spec.name: {
                "executed_cycles": t.executed_cycles,
                "commands_done": t.commands_done,
                "finished": int(t.finished),
            }
            for t in self._tasks
        }

    @property
    def all_finished(self) -> bool:
        return all(t.finished for t in self._tasks)

    # -- internals ------------------------------------------------------------
    def _notify(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _replenisher(self, task: _Task):
        while not task.finished:
            yield self.sim.timeout(task.spec.period)
            task.budget_left = task.spec.budget
            self._notify()

    def _pick(self) -> _Task | None:
        best: _Task | None = None
        for t in self._tasks:
            if not t.runnable:
                continue
            if t.compute_left > 0 and t.budget_left == 0:
                continue
            if best is None or t.spec.priority < best.spec.priority:
                best = t
        return best

    def _block_on(self, task: _Task, gen: Generator) -> None:
        """Run a channel operation as a side process; unblock on completion."""
        task.blocked = True
        proc = self.sim.process(gen, name=f"io:{task.spec.name}")

        def done(ev):
            task.blocked = False
            task.pending_value = ev.value
            self._notify()

        proc.add_callback(done)

    def _advance(self, task: _Task) -> None:
        """Fetch the task's next command (it just finished the previous one)."""
        try:
            cmd = task.gen.send(task.pending_value)
        except StopIteration:
            task.finished = True
            if self.tracer:
                self.tracer.log(self.sim.now, self.name, "task_done",
                                task=task.spec.name)
            return
        task.pending_value = None
        task.commands_done += 1
        if isinstance(cmd, Compute):
            if cmd.cycles < 0:
                raise SimulationError(f"{task.spec.name}: negative compute")
            task.compute_left = cmd.cycles
        elif isinstance(cmd, Get):
            self._block_on(task, cmd.fifo.get())
        elif isinstance(cmd, Put):
            self._block_on(task, cmd.fifo.put(cmd.value))
        elif isinstance(cmd, Sleep):
            task.blocked = True

            def waker(t=task):
                yield self.sim.timeout(cmd.cycles)
                t.blocked = False
                self._notify()

            self.sim.process(waker(), name=f"sleep:{task.spec.name}")
        else:
            raise SimulationError(
                f"{task.spec.name}: unknown command {type(cmd).__name__}"
            )

    def _run(self):
        while True:
            task = self._pick()
            if task is None:
                if all(t.finished for t in self._tasks):
                    return
                self._wake = self.sim.event()
                yield self._wake
                continue
            if task.compute_left > 0:
                # run one budget/quantum slice of the pending compute
                slice_ = min(task.compute_left, task.budget_left, self.quantum)
                yield self.sim.timeout(slice_)
                task.compute_left -= slice_
                task.budget_left -= slice_
                task.executed_cycles += slice_
                self.busy_cycles += slice_
                if task.compute_left == 0:
                    self._advance(task)
            else:
                self._advance(task)
