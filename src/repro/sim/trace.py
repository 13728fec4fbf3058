"""Event tracing for the architecture simulator.

The tracer records timestamped records of simulator activity (sample
transfers, block admissions, reconfigurations, stalls).  Records double as
the measurement substrate for the evaluation: utilization percentages,
observed throughput, bound-conformance checks and Gantt-chart data are all
computed from traces.

:class:`Kind` names the typed record vocabulary emitted by the architecture
components; :mod:`repro.sim.metrics` consumes it.  A tracer can run in three
storage modes:

* ``"full"`` — every record kept (the default; what the unit tests inspect),
* ``"ring"`` — only the newest ``capacity`` records kept (bounded memory for
  long soak runs; aggregate counters still see every record),
* ``"aggregate"`` — no records stored at all, only per-(source, kind)
  counters (production-style always-on observability).

Record order is kernel dispatch order: components emit records from event
callbacks, and the calendar-queue scheduler (see :mod:`repro.sim.kernel`
and DESIGN.md §6) guarantees the same cycle-then-FIFO dispatch order as
the reference heap kernel, so traces are bit-identical across kernels and
stable enough to diff between runs.  Temporal decoupling never reorders
records — skipped cycles are, by construction, cycles with no callbacks
and therefore no records.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["Kind", "TraceRecord", "Tracer", "GanttRow"]


class Kind:
    """Canonical record kinds emitted by the architecture components."""

    ADMIT = "admit"                # entry gateway admits a block
    RECONFIGURE = "reconfigured"   # context switch finished
    COPY = "copy"                  # entry gateway finished DMA-copying a block
    BLOCK_DONE = "block_done"      # exit gateway drained a block's last sample
    PUT = "put"                    # C-FIFO producer side
    GET = "get"                    # C-FIFO consumer side
    FIRE = "fire"                  # accelerator kernel firing
    SEND = "send"                  # NI hardware-FIFO send
    RECV = "recv"                  # NI hardware-FIFO receive
    TRANSFER = "transfer"          # configuration-bus word transfer
    DELIVER = "deliver"            # ring flit delivery
    TASK_DONE = "task_done"        # processor task completion

    # -- robustness vocabulary (fault injection & recovery) --------------
    FAULT = "fault"                        # injector armed a fault
    WATCHDOG = "watchdog_timeout"          # entry-gateway watchdog expired
    RETRY = "retry"                        # block retransmission scheduled
    RECOVERED = "recovered"                # block completed after >=1 retry
    DEGRADE = "degrade"                    # stream paused by admission control
    READMIT = "readmit"                    # paused stream re-admitted
    RESYNC = "resync"                      # lost credits/pointers repaired
    STREAM_FAILED = "stream_failed"        # retry cap exhausted, stream dropped

    # -- reconfiguration vocabulary (online mode transitions) -------------
    STREAM_JOIN = "stream_join"            # a stream was admitted mid-run
    STREAM_LEAVE = "stream_leave"          # a stream left mid-run
    TILE_FAILED = "tile_failed"            # an accelerator tile died for good
    TILE_REMAP = "tile_remapped"           # chain remapped onto a spare tile
    MODE_CHANGE = "mode_change"            # a hitless mode transition finished

    #: robustness kinds (fault/recovery bookkeeping)
    ROBUSTNESS = frozenset(
        {FAULT, WATCHDOG, RETRY, RECOVERED, DEGRADE, READMIT, RESYNC, STREAM_FAILED}
    )

    #: reconfiguration kinds (churn / mode-transition bookkeeping)
    RECONFIGURATION = frozenset(
        {STREAM_JOIN, STREAM_LEAVE, TILE_FAILED, TILE_REMAP, MODE_CHANGE}
    )

    #: kinds sufficient for metrics/conformance work (cheap to keep)
    METRICS = (frozenset({ADMIT, RECONFIGURE, COPY, BLOCK_DONE, PUT, GET})
               | ROBUSTNESS | RECONFIGURATION)


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped observation."""

    time: int
    source: str
    kind: str
    data: dict[str, Any] = field(default_factory=dict)


def _record(row: tuple) -> TraceRecord:
    """A stored row as a :class:`TraceRecord` (see :meth:`Tracer.log`)."""
    if len(row) == 5:
        time, source, kind, name, value = row
        return TraceRecord(time, source, kind, {name: value})
    return TraceRecord(*row)


class Tracer:
    """A structured, queryable store of :class:`TraceRecord` objects.

    Parameters
    ----------
    enabled:
        Master switch; a disabled tracer drops everything.
    kinds:
        Optional allow-list of record kinds (others are dropped entirely).
    mode:
        Storage mode: ``"full"``, ``"ring"`` or ``"aggregate"`` (see module
        docstring).  ``"ring"`` requires ``capacity``.
    capacity:
        Ring size for ``mode="ring"``.

    The filter (``enabled`` and ``kinds``) is fixed at construction: no
    code assigns either afterwards.  Each emitting component asks
    :meth:`keeps` once, in its own constructor, and holds the tracer only
    when it keeps a kind that component emits, so a filtered-out
    per-word kind costs no call at all.  Accepted records are stored as
    plain tuples — ``(time, source, kind, name, value)`` for a record with
    exactly one data field, ``(time, source, kind, data)`` otherwise — and
    :class:`TraceRecord` objects are built only when read.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        kinds: Iterable[str] | None = None,
        mode: str = "full",
        capacity: int | None = None,
    ) -> None:
        if mode not in ("full", "ring", "aggregate"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        if mode == "ring":
            if capacity is None or capacity < 1:
                raise ValueError("ring mode needs a positive capacity")
        elif capacity is not None:
            raise ValueError(f"capacity is only meaningful in ring mode, not {mode!r}")
        self.enabled = enabled
        self.kinds = set(kinds) if kinds is not None else None
        self.mode = mode
        self.capacity = capacity
        self._rows: deque[tuple] | list[tuple]
        self._rows = deque(maxlen=capacity) if mode == "ring" else []
        self.total_logged = 0          # every accepted record, ever
        self._counts: Counter[tuple[str, str]] = Counter()

    def keeps(self, *kinds: str) -> bool:
        """Whether a record of any of ``kinds`` would be accepted."""
        return self.enabled and (self.kinds is None or not self.kinds.isdisjoint(kinds))

    @property
    def records(self) -> list[TraceRecord]:
        """Stored records in time order (empty in aggregate mode)."""
        return [_record(row) for row in self._rows]

    @property
    def dropped(self) -> int:
        """Accepted records no longer stored (ring eviction / aggregate mode)."""
        return self.total_logged - len(self._rows)

    def log(self, time: int, source: str, kind: str, **data: Any) -> None:
        """Record an observation (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        self.total_logged += 1
        self._counts[(source, kind)] += 1
        if self.mode != "aggregate":
            if len(data) == 1:
                (name, value), = data.items()
                self._rows.append((time, source, kind, name, value))
            else:
                self._rows.append((time, source, kind, data))

    # -- queries ---------------------------------------------------------
    def query(
        self,
        kind: str | None = None,
        source: str | None = None,
        since: int | None = None,
        until: int | None = None,
        **data_filters: Any,
    ) -> Iterator[TraceRecord]:
        """Stored records matching every given criterion, in time order.

        ``data_filters`` match against the record's ``data`` payload, e.g.
        ``tracer.query(kind=Kind.ADMIT, stream="ch1.s1")``.
        """
        for row in self._rows:
            if kind is not None and row[2] != kind:
                continue
            if source is not None and row[1] != source:
                continue
            if since is not None and row[0] < since:
                continue
            if until is not None and row[0] > until:
                continue
            r = _record(row)
            if any(r.data.get(k) != v for k, v in data_filters.items()):
                continue
            yield r

    def times(self, kind: str, source: str) -> list[int]:
        """Times of the stored ``kind`` records from ``source``, in order."""
        return [row[0] for row in self._rows if row[1] == source and row[2] == kind]

    def by_kind(self, kind: str) -> list[TraceRecord]:
        """All stored records of one kind, in time order."""
        return list(self.query(kind=kind))

    def by_source(self, source: str) -> list[TraceRecord]:
        """All stored records from one component, in time order."""
        return list(self.query(source=source))

    def last(self, kind: str, **data_filters: Any) -> TraceRecord | None:
        """Newest stored record of ``kind`` matching the filters, if any."""
        found = None
        for r in self.query(kind=kind, **data_filters):
            found = r
        return found

    def count(self, kind: str, source: str | None = None) -> int:
        """Lifetime count of accepted records (survives ring eviction)."""
        if source is not None:
            return self._counts[(source, kind)]
        return sum(n for (_s, k), n in self._counts.items() if k == kind)

    def counts(self) -> dict[tuple[str, str], int]:
        """Lifetime (source, kind) → count aggregation."""
        return dict(self._counts)

    def clear(self) -> None:
        self._rows.clear()
        self._counts.clear()
        self.total_logged = 0


@dataclass(frozen=True)
class GanttRow:
    """One row of a Gantt chart: a resource and its busy segments."""

    resource: str
    segments: tuple[tuple[int, int, str], ...]  # (start, end, label)

    def render(self, scale: int = 1, width: int = 72, horizon: int | None = None) -> str:
        """Poor-man's ASCII rendering for terminal output.

        ``horizon`` fixes the time axis so several rows align; it defaults
        to this row's own last segment end.
        """
        if not self.segments:
            return f"{self.resource:>14} | (idle)"
        if horizon is None:
            horizon = max(end for _s, end, _l in self.segments)
        scale = max(1, scale, -(-horizon // width))  # ceil so everything fits
        cells = [" "] * max(1, -(-horizon // scale))
        for start, end, label in self.segments:
            lo = min(len(cells) - 1, start // scale)
            hi = min(len(cells), max(lo + 1, -(-end // scale)))
            ch = label[0] if label else "#"
            for i in range(lo, hi):
                cells[i] = ch
        return f"{self.resource:>14} |{''.join(cells)}|"
