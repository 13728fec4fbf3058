"""Deterministic, seeded fault injection for the architecture model.

The paper's bounds (Eq. 2–5) assume fault-free accelerators, ring links and
C-FIFOs.  This module supplies the failure model that lets the rest of the
repo answer "what happens when a component misbehaves?":

* :class:`FaultSpec` — one typed fault (kind, arming cycle, target, shape),
* :class:`FaultPlan` — an ordered, JSON-serialisable collection of specs
  plus the RNG seed that makes probabilistic faults reproducible,
* :class:`FaultInjector` — the runtime object the architecture components
  query from their hook points (``DualRing.post``, ``AcceleratorTile``
  firings, ``CFifo`` pointer posts, gateway reconfiguration),
* :class:`WatchdogConfig` — entry-gateway recovery policy (per-stream cycle
  budgets derived from the γ_s turnaround bound, retry cap, backoff shape),
* :class:`AdmissionController` — graceful degradation: pauses the
  lowest-priority streams while recovery overhead breaks the Eq. 5
  throughput check and re-admits them after a healthy window.

Everything here is architecture-agnostic: the module only speaks in
component *names* and cycle numbers, never imports :mod:`repro.arch`, and
stays fully deterministic for a fixed plan (the single :class:`random.Random`
instance is seeded from the plan and consulted in simulation order).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

from .trace import Kind, Tracer

__all__ = [
    "FaultError",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "WatchdogConfig",
    "AdmissionController",
    "StreamRequirement",
    "ACCEL_STALL",
    "RING_DELAY",
    "RING_DROP",
    "CFIFO_PTR_LOSS",
    "RECONFIG_FAIL",
    "TILE_FAILURE",
    "STREAM_JOIN",
    "STREAM_LEAVE",
    "FAULT_KINDS",
    "CHURN_KINDS",
]


class FaultError(ValueError):
    """Raised for malformed fault specifications or plans."""


#: an accelerator tile stalls (or slows) for ``extra`` cycles per firing
ACCEL_STALL = "accel_stall"
#: flits between two ring stations are delayed by ``extra`` cycles
RING_DELAY = "ring_delay"
#: flits between two ring stations are dropped (probabilistically)
RING_DROP = "ring_drop"
#: a C-FIFO pointer-update flit is lost (credit desynchronisation)
CFIFO_PTR_LOSS = "cfifo_ptr_loss"
#: gateway reconfiguration fails and must be repeated
RECONFIG_FAIL = "reconfig_fail"
#: an accelerator tile dies for good on its next firing (spare failover)
TILE_FAILURE = "permanent_tile_failure"
#: a new stream requests admission mid-run (``params`` carries its spec)
STREAM_JOIN = "stream_join"
#: a running stream requests departure mid-run
STREAM_LEAVE = "stream_leave"

FAULT_KINDS = frozenset(
    {ACCEL_STALL, RING_DELAY, RING_DROP, CFIFO_PTR_LOSS, RECONFIG_FAIL,
     TILE_FAILURE, STREAM_JOIN, STREAM_LEAVE}
)

#: kinds handled by the reconfiguration manager, not the injector hooks
CHURN_KINDS = frozenset({STREAM_JOIN, STREAM_LEAVE})

#: hooked component -> the plan kinds that make wiring the injector into it
#: matter (:meth:`FaultInjector.can_fire`).  A C-FIFO also needs the
#: injector under ring faults: its ``get`` waits out a delayed data flit
#: only while an injector is attached.
_COMPONENT_KINDS = {
    "ring": frozenset({RING_DELAY, RING_DROP}),
    "cfifo": frozenset({CFIFO_PTR_LOSS, RING_DELAY, RING_DROP}),
    "tile": frozenset({ACCEL_STALL, TILE_FAILURE}),
}

#: spec fields serialised to / parsed from JSON, in canonical order
_SPEC_FIELDS = (
    "kind",
    "at",
    "target",
    "duration",
    "extra",
    "count",
    "probability",
    "ring",
    "side",
    "src",
    "dst",
    "params",
)


@dataclass(frozen=True)
class FaultSpec:
    """One typed fault, armed for a window of simulated cycles.

    Parameters
    ----------
    kind:
        One of the module-level fault-kind constants.
    at:
        First cycle at which the fault is armed.
    target:
        Component name the fault applies to (tile name for
        :data:`ACCEL_STALL`, fifo name for :data:`CFIFO_PTR_LOSS`, stream
        name for :data:`RECONFIG_FAIL`).  ``None`` matches every
        component the kind can affect.
    duration:
        Width of the armed window in cycles (armed while
        ``at <= now < at + duration``).
    extra:
        Added latency in cycles (stall/delay kinds).
    count:
        Cap on how many times the fault may fire; ``None`` = unlimited
        within the window.
    probability:
        For :data:`RING_DROP`: per-flit drop probability (drawn from the
        plan's seeded RNG).  ``None`` means drop every matching flit.
    ring:
        ``"data"`` or ``"credit"`` — which ring a link fault applies to.
    side:
        For :data:`CFIFO_PTR_LOSS`: ``"write"`` (wptr update lost, consumer
        starves) or ``"read"`` (rptr update lost, producer loses credit).
    src / dst:
        Ring station pair a link fault applies to; ``None`` matches any.
    params:
        For :data:`STREAM_JOIN`: the joining stream's parameters — at least
        ``"throughput"`` (``[num, den]`` samples/cycle) and ``"reconfigure"``
        (``R_s`` cycles); optionally ``"block_size"`` to skip the online
        re-solve for this stream.
    """

    kind: str
    at: int
    target: str | None = None
    duration: int = 1
    extra: int = 0
    count: int | None = None
    probability: float | None = None
    ring: str = "data"
    side: str = "write"
    src: int | None = None
    dst: int | None = None
    params: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise FaultError(f"fault arming cycle must be >= 0, got {self.at}")
        if self.duration < 1:
            raise FaultError(f"fault duration must be >= 1, got {self.duration}")
        if self.count is not None and self.count < 1:
            raise FaultError(f"fault count must be >= 1, got {self.count}")
        if self.kind in (ACCEL_STALL, RING_DELAY) and self.extra < 1:
            raise FaultError(f"{self.kind} needs extra >= 1 cycles, got {self.extra}")
        if self.ring not in ("data", "credit"):
            raise FaultError(f"ring must be 'data' or 'credit', got {self.ring!r}")
        if self.side not in ("write", "read"):
            raise FaultError(f"side must be 'write' or 'read', got {self.side!r}")
        if self.probability is not None and not (0.0 < self.probability <= 1.0):
            raise FaultError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.probability is not None and self.kind != RING_DROP:
            raise FaultError("probability is only meaningful for ring_drop faults")
        if self.kind in (TILE_FAILURE, STREAM_JOIN, STREAM_LEAVE) and not self.target:
            what = "tile" if self.kind == TILE_FAILURE else "stream"
            raise FaultError(f"{self.kind} needs a target {what} name")
        if self.params is not None and self.kind != STREAM_JOIN:
            raise FaultError("params is only meaningful for stream_join faults")
        if self.kind == STREAM_JOIN:
            p = self.params
            if not isinstance(p, dict):
                raise FaultError(
                    "stream_join needs a params dict with at least "
                    "'throughput' ([num, den]) and 'reconfigure' (cycles)"
                )
            missing = {"throughput", "reconfigure"} - set(p)
            if missing:
                raise FaultError(
                    f"stream_join params missing {sorted(missing)}; got "
                    f"{sorted(p)}"
                )
            tp = p["throughput"]
            if (not isinstance(tp, (list, tuple)) or len(tp) != 2
                    or not all(isinstance(v, int) and v > 0 for v in tp)):
                raise FaultError(
                    "stream_join params['throughput'] must be a positive "
                    f"[num, den] pair, got {tp!r}"
                )

    @property
    def throughput(self) -> Fraction:
        """The joining stream's required rate (:data:`STREAM_JOIN` only)."""
        if self.kind != STREAM_JOIN or self.params is None:
            raise FaultError(f"{self.kind} specs carry no throughput")
        num, den = self.params["throughput"]
        return Fraction(num, den)

    @property
    def until(self) -> int:
        """First cycle past the armed window."""
        return self.at + self.duration

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in _SPEC_FIELDS:
            value = getattr(self, name)
            if name in ("kind", "at") or value != FaultSpec.__dataclass_fields__[
                name
            ].default:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise FaultError(f"unknown fault-spec fields: {sorted(unknown)}")
        if "kind" not in data or "at" not in data:
            raise FaultError("a fault spec needs at least 'kind' and 'at'")
        try:
            return cls(**data)
        except TypeError as err:
            raise FaultError(f"malformed fault spec {data!r}: {err}") from err


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, reproducible collection of :class:`FaultSpec` objects."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def churn(self) -> tuple[FaultSpec, ...]:
        """Join/leave requests, for the reconfiguration manager."""
        return tuple(s for s in self.specs if s.kind in CHURN_KINDS)

    @property
    def tile_failures(self) -> tuple[FaultSpec, ...]:
        """Permanent tile failures, for spare provisioning checks."""
        return tuple(s for s in self.specs if s.kind == TILE_FAILURE)

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultError(f"fault plan must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultError(f"unknown fault-plan fields: {sorted(unknown)}")
        raw = data.get("faults", [])
        if not isinstance(raw, list):
            raise FaultError("'faults' must be a list of fault specs")
        return cls(
            specs=tuple(FaultSpec.from_dict(d) for d in raw),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise FaultError(f"invalid fault-plan JSON: {err}") from err
        return cls.from_dict(data)


class FaultInjector:
    """Runtime fault oracle the architecture components query at hook points.

    The injector is passive: components *ask* it whether a fault applies at
    the current cycle, and it answers deterministically from the plan (and
    the plan's seeded RNG for probabilistic drops).  Every fault that fires
    is recorded in :attr:`events` (and mirrored to the tracer as
    :data:`Kind.FAULT` records) so conformance checking can later attribute
    bound violations to their causes.
    """

    def __init__(self, plan: FaultPlan, sim: Any, tracer: Tracer | None = None) -> None:
        self.plan = plan
        self.sim = sim
        self.tracer = tracer
        self.rng = random.Random(plan.seed)
        #: chronological record of every fault that actually fired
        self.events: list[dict[str, Any]] = []
        self._fired: Counter[int] = Counter()  # spec index -> times fired
        #: kind -> its ``(plan index, spec)`` pairs, so a hook scans only
        #: the specs it can fire
        self._by_kind: dict[str, list[tuple[int, FaultSpec]]] = {}
        for idx, spec in enumerate(plan.specs):
            self._by_kind.setdefault(spec.kind, []).append((idx, spec))
        #: dropped flits per (ring, src, dst), awaiting repair
        self._lost: Counter[tuple[str, int, int]] = Counter()

    # -- internals -------------------------------------------------------
    def _armed(self, spec: FaultSpec, idx: int) -> bool:
        if spec.kind == TILE_FAILURE:
            # a permanent failure latches: armed from ``at`` onward until
            # it has fired once (the tile never asks again after dying)
            if self.sim.now < spec.at or self._fired[idx] >= 1:
                return False
            return True
        if not (spec.at <= self.sim.now < spec.until):
            return False
        if spec.count is not None and self._fired[idx] >= spec.count:
            return False
        return True

    def _fire(self, spec: FaultSpec, idx: int, **detail: Any) -> None:
        self._fired[idx] += 1
        record = {
            "time": self.sim.now,
            "kind": spec.kind,
            "target": spec.target,
            **detail,
        }
        self.events.append(record)
        if self.tracer is not None:
            self.tracer.log(self.sim.now, "fault-injector", Kind.FAULT,
                            fault=spec.kind, **{k: v for k, v in record.items()
                                                if k not in ("time", "kind")})

    def _matching(self, kind: str) -> Iterable[tuple[int, FaultSpec]]:
        for idx, spec in self._by_kind.get(kind, ()):
            if self._armed(spec, idx):
                yield idx, spec

    def can_fire(self, component: str) -> bool:
        """Does the plan hold a kind that ``component``'s hooks act on?

        ``component`` is ``"ring"``, ``"cfifo"`` or ``"tile"``.  Builders
        attach the injector only where this holds: a hook whose kinds the
        plan lacks never fires, records nothing and draws nothing from the
        RNG, so leaving it unwired is exact — and it keeps the component on
        its fault-free fast path.
        """
        return not _COMPONENT_KINDS[component].isdisjoint(self._by_kind)

    # -- hook points -----------------------------------------------------
    def accel_extra(self, tile_name: str) -> int:
        """Extra stall cycles for one firing of ``tile_name`` (0 = healthy)."""
        total = 0
        for idx, spec in self._matching(ACCEL_STALL):
            if spec.target is not None and spec.target != tile_name:
                continue
            self._fire(spec, idx, target=tile_name, extra=spec.extra)
            total += spec.extra
        return total

    def ring_fault(self, ring: str, src: int, dst: int) -> tuple[int, bool]:
        """(extra delay, dropped?) for a flit from ``src`` to ``dst``.

        Dropped flits are remembered per ``(ring, src, dst)`` so recovery
        can later settle the books via :meth:`claim_drops`.
        """
        delay = 0
        dropped = False
        for idx, spec in self._matching(RING_DELAY):
            if spec.ring != ring:
                continue
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            self._fire(spec, idx, ring=ring, src=src, dst=dst, extra=spec.extra)
            delay += spec.extra
        for idx, spec in self._matching(RING_DROP):
            if spec.ring != ring:
                continue
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            if spec.probability is not None and self.rng.random() >= spec.probability:
                continue
            self._fire(spec, idx, ring=ring, src=src, dst=dst)
            dropped = True
        if dropped:
            self._lost[(ring, src, dst)] += 1
        return delay, dropped

    def cfifo_ptr_loss(self, fifo_name: str, side: str) -> bool:
        """Should this ``side`` ("write"/"read") pointer update be lost?"""
        for idx, spec in self._matching(CFIFO_PTR_LOSS):
            if spec.target is not None and spec.target != fifo_name:
                continue
            if spec.side != side:
                continue
            self._fire(spec, idx, target=fifo_name, side=side)
            return True
        return False

    def reconfig_fails(self, stream: str) -> bool:
        """Does this reconfiguration attempt for ``stream`` fail?"""
        for idx, spec in self._matching(RECONFIG_FAIL):
            if spec.target is not None and spec.target != stream:
                continue
            self._fire(spec, idx, target=stream)
            return True
        return False

    def tile_fails(self, tile_name: str) -> bool:
        """Does ``tile_name`` die permanently at this firing?

        Queried by the tile before each firing; a ``True`` answer is
        terminal — the tile marks itself dead and never asks again.
        """
        for idx, spec in self._matching(TILE_FAILURE):
            if spec.target != tile_name:
                continue
            self._fire(spec, idx, target=tile_name)
            return True
        return False

    # -- recovery support ------------------------------------------------
    def claim_drops(self, data_src: int, data_dst: int) -> tuple[int, int]:
        """Take (and reset) the drop counts for one data-direction channel.

        Returns ``(data_drops, credit_drops)``: data flits lost on the way
        ``data_src → data_dst`` and credit-return flits lost on the way
        back (``data_dst → data_src`` on the credit ring).
        """
        data = self._lost.pop(("data", data_src, data_dst), 0)
        credit = self._lost.pop(("credit", data_dst, data_src), 0)
        return data, credit

    @property
    def pending_losses(self) -> int:
        """Credits dropped by ring faults and not yet repaired."""
        return sum(self._lost.values())

    def max_ring_delay(self) -> int:
        """Worst extra per-flit delay any armed-at-any-time spec can add."""
        return max(
            (s.extra for s in self.plan.specs if s.kind == RING_DELAY), default=0
        )


@dataclass
class WatchdogConfig:
    """Entry-gateway recovery policy.

    The watchdog arms a per-block timer when a block is admitted; if the
    exit gateway has not signalled pipeline-idle within the stream's cycle
    budget (γ_s turnaround bound plus ``slack``), the chain is flushed and
    the block retransmitted with bounded exponential backoff.
    """

    #: stream name -> cycle budget (γ_s bound; :attr:`slack` is added on top)
    budgets: dict[str, int] = field(default_factory=dict)
    #: budget for streams not listed in :attr:`budgets`
    default_budget: int = 100_000
    #: grace cycles added to every budget
    slack: int = 64
    #: cycles between chain-quiescence probes while flushing
    settle_cycles: int = 64
    #: maximum quiescence probes before giving up on a flush
    settle_rounds: int = 64
    #: first retry backoff (cycles); doubles per retry up to :attr:`backoff_cap`
    backoff_base: int = 32
    backoff_cap: int = 2048
    #: retransmissions per block before the stream is declared failed
    retry_limit: int = 4
    #: admission-poll stall horizon after which lost credits are repaired
    stall_resync_after: int = 4096
    #: called with the stream name when its retry cap is exhausted
    on_stream_failed: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise FaultError(f"watchdog slack must be >= 0, got {self.slack}")
        if self.retry_limit < 0:
            raise FaultError(f"retry limit must be >= 0, got {self.retry_limit}")
        if self.backoff_base < 1 or self.backoff_cap < self.backoff_base:
            raise FaultError(
                f"backoff must satisfy 1 <= base <= cap, got "
                f"base={self.backoff_base} cap={self.backoff_cap}"
            )
        if self.settle_cycles < 1 or self.settle_rounds < 1:
            raise FaultError("settle_cycles and settle_rounds must be >= 1")

    def budget_for(self, stream: str) -> int:
        """Watchdog budget (bound + slack) for one block of ``stream``."""
        return self.budgets.get(stream, self.default_budget) + self.slack

    def backoff(self, attempt: int) -> int:
        """Backoff before retransmission ``attempt`` (1-based), in cycles."""
        if attempt < 1:
            raise FaultError(f"backoff attempt must be >= 1, got {attempt}")
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)


@dataclass(frozen=True)
class StreamRequirement:
    """Throughput requirement of one stream, for admission control."""

    name: str
    mu: Fraction        # required throughput (samples/cycle), Eq. 5 right side
    tau: int            # τ̂ block-time bound contribution to the round
    eta: int            # block size η


class AdmissionController:
    """Graceful degradation per the Eq. 5 throughput check.

    Streams are given in priority order (highest first).  After each
    recovery the controller re-evaluates ``η_s / (γ_active + overhead)`` for
    every active stream, where ``γ_active`` counts only non-paused streams
    and ``overhead`` is the recovery time observed within the sliding
    ``healthy_window``; while any active stream misses its μ_s, the
    lowest-priority active stream is paused.  A paused stream is re-admitted
    once a healthy window elapses with no recovery events.
    """

    def __init__(
        self,
        requirements: Iterable[StreamRequirement],
        healthy_window: int = 8192,
    ) -> None:
        self.requirements = list(requirements)
        if healthy_window < 1:
            raise FaultError(f"healthy window must be >= 1, got {healthy_window}")
        self.healthy_window = healthy_window
        self._paused: set[str] = set()
        self._failed: set[str] = set()
        #: (cycle, recovery_cycles) observations inside the sliding window
        self._recoveries: list[tuple[int, int]] = []
        self._last_event = 0

    # -- queries ---------------------------------------------------------
    def is_paused(self, name: str) -> bool:
        return name in self._paused

    @property
    def paused(self) -> list[str]:
        """Currently paused stream names, in priority order."""
        return [r.name for r in self.requirements if r.name in self._paused]

    def _active(self) -> list[StreamRequirement]:
        return [
            r
            for r in self.requirements
            if r.name not in self._paused and r.name not in self._failed
        ]

    def _overhead(self, now: int) -> int:
        self._recoveries = [
            (t, c) for t, c in self._recoveries if now - t < self.healthy_window
        ]
        return sum(c for _t, c in self._recoveries)

    def _satisfied(self, now: int) -> bool:
        active = self._active()
        round_len = sum(r.tau for r in active) + self._overhead(now)
        if round_len <= 0:
            return True
        return all(Fraction(r.eta, round_len) >= r.mu for r in active)

    # -- transitions -----------------------------------------------------
    def note_recovery(self, now: int, stream: str, cycles: int) -> list[str]:
        """Record ``cycles`` of recovery overhead; returns newly paused streams."""
        self._recoveries.append((now, int(cycles)))
        self._last_event = now
        newly_paused: list[str] = []
        while not self._satisfied(now) and len(self._active()) > 1:
            victim = self._active()[-1]
            self._paused.add(victim.name)
            newly_paused.append(victim.name)
        return newly_paused

    def tick(self, now: int) -> list[str]:
        """Periodic re-admission check; returns streams re-admitted at ``now``."""
        if not self._paused or now - self._last_event < self.healthy_window:
            return []
        readmitted: list[str] = []
        for req in self.requirements:  # highest priority first
            if req.name in self._paused:
                self._paused.discard(req.name)
                readmitted.append(req.name)
                self._last_event = now
                break
        return readmitted

    def mark_failed(self, name: str) -> None:
        """Permanently drop ``name`` from the active set (retry cap hit)."""
        self._failed.add(name)
        self._paused.discard(name)
