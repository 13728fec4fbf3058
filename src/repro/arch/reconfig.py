"""Online reconfiguration — stream churn and spare-tile failover.

The paper computes block sizes offline, for a fixed stream set, and keeps
them for the lifetime of the run (Algorithm 1).  Real deployments are not
that static: streams join and leave ("different numbers of streams with
different throughput requirements"), and hardware fails.  This module adds
the missing online half, in the spirit of the bounded mode-transition
protocols of Jung et al. (see PAPERS.md): a :class:`ReconfigurationManager`
that accepts join/leave requests and permanent-tile-failure notifications
mid-simulation and executes *hitless* mode transitions —

1. **freeze** — the entry-gateway stops admitting blocks (the in-flight
   block, if any, completes normally),
2. **quiesce** — wait until the pipeline-idle token is parked and the chain
   holds no residue (the only state in which the paper allows any
   reconfiguration),
3. **re-solve** — run Algorithm 1 over the new stream set
   (:func:`repro.core.blocksize_ilp.resolve_block_sizes`),
4. **reprogram** — pay for the gateway rotation table and C-FIFO credit
   updates over the configuration bus (serialised, cycle-counted),
5. **thaw** — admission resumes under the new mode.

Every transition is recorded as a :class:`ModeTransition` with its measured
latency against a closed-form budget (one worst-case block round of the
*outgoing* mode plus the bus reprogramming time plus slack), so a run can
assert Jung-style bounded transition delays.  Between transitions the run
is in a steady *mode* whose Eq. 2–5 bounds are checked per
:func:`repro.core.conformance.check_modal_conformance` window.

Permanent tile failures take the same quiesce-then-mutate path but swap
hardware instead of streams: the dead tile's chain position is remapped
onto a dormant cold spare (:meth:`repro.arch.system.MPSoC.add_spare_tile`),
the kernel object and shadow contexts surviving the move.  A failure under
an in-flight block is handled by the entry-gateway's watchdog (abort,
flush, remap while provably quiet, replay); an idle-time failure is handled
by the manager directly.  With no spare left, the remap is refused and the
affected stream degrades through the existing retry/fail-stop path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import Any, Callable

from ..core.blocksize_ilp import (
    BlockSizeResult,
    resolve_block_sizes,
    sharing_load,
    system_fingerprint,
)
from ..core.conformance import ModeWindow, calibrated_system
from ..core.params import GatewaySystem, ParameterError, StreamSpec
from ..core.timing import block_round_length, tau_hat
from ..sim.faults import CHURN_KINDS, STREAM_JOIN, STREAM_LEAVE, FaultError, FaultPlan, FaultSpec
from ..sim.trace import Kind
from .accelerator_tile import AcceleratorTile
from .gateway import StreamBinding
from .system import MPSoC, SharedChain

__all__ = ["ModeTransition", "ReconfigurationManager"]


@dataclass(frozen=True)
class ModeTransition:
    """One executed (or refused) online mode transition."""

    index: int
    #: "stream_join" | "stream_leave" | "tile_failure"
    trigger: str
    #: stream name, or "failed_tile->spare_tile" for a remap
    detail: str
    requested_at: int
    quiesced_at: int
    completed_at: int
    #: closed-form latency budget the transition was held to (cycles)
    budget: int
    #: configuration-bus words paid to reprogram gateway + C-FIFO credits
    bus_words: int
    #: block sizes in force after the transition
    block_sizes: dict[str, int]
    #: False when the request was refused (infeasible, no spare, bad name);
    #: a refused transition changes nothing and opens no new mode window
    accepted: bool = True
    reason: str | None = None
    #: "manager" (idle-time) or "watchdog" (mid-block recovery path)
    via: str = "manager"
    #: the mode's analysis model after the transition (None when refused)
    system: GatewaySystem | None = field(default=None, compare=False, repr=False)

    @property
    def latency(self) -> int:
        """Request-to-completion transition delay in cycles."""
        return self.completed_at - self.requested_at

    @property
    def within_budget(self) -> bool:
        return self.latency <= self.budget

    def event(self) -> dict[str, Any]:
        """An attribution-compatible event record (see ``attribute_conformance``)."""
        return {
            "time": self.requested_at,
            "kind": f"transition:{self.trigger}",
            "detail": self.detail,
            "until": self.completed_at,
            "accepted": self.accepted,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "trigger": self.trigger,
            "detail": self.detail,
            "requested_at": self.requested_at,
            "quiesced_at": self.quiesced_at,
            "completed_at": self.completed_at,
            "latency": self.latency,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "bus_words": self.bus_words,
            "block_sizes": dict(self.block_sizes),
            "accepted": self.accepted,
            "reason": self.reason,
            "via": self.via,
        }


class ReconfigurationManager:
    """Executes hitless mode transitions on a running shared chain.

    Parameters
    ----------
    soc, chain:
        The built system and the gateway construct to manage.  The manager
        wires itself into the entry-gateway (``entry.reconfig``) and every
        tile's ``on_permanent_failure`` hook.
    system:
        The initial mode's analysis model (block sizes assigned).
    binding_factory:
        ``f(StreamSpec, eta) -> StreamBinding`` building the binding and
        its fifos for a joining stream.  Joins are refused without one.
    on_stream_left:
        Called with the removed :class:`StreamBinding` after a leave, so
        the harness can settle its completion bookkeeping.
    on_idle:
        Called whenever a transition or remap ends with none left in
        flight, so the harness can check whether its run is complete
        (see :attr:`idle`).
    eta_max:
        Cap on any re-solved block size (e.g. from C-FIFO headroom).
    reprogram_words:
        Configuration-bus words per stream to reprogram the gateway
        rotation table and C-FIFO credit counters on a mode change (one
        chain position's rewiring for a remap).
    transition_slack:
        Grace cycles added to every transition budget.
    failure_allowance:
        Extra budget for failure-triggered transitions (watchdog timeout,
        flush settling and backoff all precede the remap).
    """

    def __init__(
        self,
        soc: MPSoC,
        chain: SharedChain,
        system: GatewaySystem,
        *,
        initial_result: BlockSizeResult | None = None,
        binding_factory: Callable[[StreamSpec, int], StreamBinding] | None = None,
        on_stream_left: Callable[[StreamBinding], None] | None = None,
        on_idle: Callable[[], None] | None = None,
        c1_mode: str = "sum",
        eta_max: int | None = None,
        reprogram_words: int = 4,
        transition_slack: int = 512,
        failure_allowance: int = 0,
        poll_interval: int = 32,
        quiesce_poll: int = 4,
    ) -> None:
        system.require_block_sizes()
        self.sim = soc.sim
        self.soc = soc
        self.chain = chain
        self.bus = soc.config_bus
        self.system = system
        self.tracer = soc.tracer if soc.tracer.enabled else None
        self.c1_mode = c1_mode
        self.eta_max = eta_max
        self.reprogram_words = int(reprogram_words)
        self.transition_slack = int(transition_slack)
        self.failure_allowance = int(failure_allowance)
        self.poll_interval = max(1, int(poll_interval))
        self.quiesce_poll = max(1, int(quiesce_poll))
        self._binding_factory = binding_factory
        self._on_stream_left = on_stream_left
        self._on_idle = on_idle
        self._initial_system = system
        if initial_result is None:
            initial_result = BlockSizeResult(
                block_sizes={s.name: s.block_size for s in system.streams},
                objective=sum(s.block_size for s in system.streams),
                feasible=True,
                backend="given",
                load=sharing_load(system),
                fingerprint=system_fingerprint(system, c1_mode=c1_mode),
            )
        self._result = initial_result
        #: every transition, accepted and refused, in completion order
        self.transitions: list[ModeTransition] = []
        #: dead tiles awaiting a spare remap (drained by
        #: :meth:`execute_remaps`, from the watchdog path or the manager)
        self.pending_remaps: list[AcceleratorTile] = []
        self._failure_times: dict[str, int] = {}
        self._events: list[FaultSpec] = []
        self._busy = 0
        self._started = False
        chain.entry.reconfig = self
        for tile in chain.tiles:
            tile.on_permanent_failure = self.notify_tile_failure

    # -- request interface -------------------------------------------------
    def schedule(self, spec: FaultSpec) -> None:
        """Queue one join/leave request for its ``at`` cycle."""
        if spec.kind not in CHURN_KINDS:
            raise FaultError(
                f"the reconfiguration manager handles {sorted(CHURN_KINDS)} "
                f"requests, not {spec.kind!r}"
            )
        self._events.append(spec)
        self._events.sort(key=lambda s: s.at)

    def schedule_plan(self, plan: FaultPlan) -> None:
        """Queue every churn request of a fault plan."""
        for spec in plan.churn:
            self.schedule(spec)

    def notify_tile_failure(self, tile: AcceleratorTile) -> None:
        """Tile hook: queue a spare remap for a permanently failed tile.

        Synchronous and side-effect-free on the simulation — the remap
        itself runs from the watchdog's recovery path (mid-block failure)
        or the manager's own process (idle-time failure), both of which
        first drive the chain to quiescence.
        """
        if tile in self.pending_remaps:
            return
        self._failure_times.setdefault(tile.name, self.sim.now)
        self.pending_remaps.append(tile)

    def start(self) -> None:
        """Spawn the manager's scheduling process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._run(), name="reconfig-manager")

    # -- derived views -----------------------------------------------------
    @property
    def idle(self) -> bool:
        """No request pending, no remap pending, no transition in flight."""
        return not (self._events or self.pending_remaps or self._busy)

    @property
    def accepted(self) -> list[ModeTransition]:
        return [t for t in self.transitions if t.accepted]

    def mode_windows(self) -> list[ModeWindow]:
        """The run's steady modes, for per-mode conformance checking.

        Mode ``k`` covers blocks admitted from transition ``k``'s
        completion up to (excluding) transition ``k+1``'s request; the
        transitions' own quiesce/reprogram time lies between windows, where
        no steady-state bound applies.
        """
        windows: list[ModeWindow] = []
        start = 0
        current = self._initial_system
        for t in self.accepted:
            windows.append(
                ModeWindow(index=len(windows), start=start,
                           end=t.requested_at, system=current)
            )
            if t.system is not None:
                current = t.system
            start = t.completed_at
        windows.append(
            ModeWindow(index=len(windows), start=start, end=None, system=current)
        )
        return windows

    def transition_events(self) -> list[dict[str, Any]]:
        """Attribution-compatible records for every transition."""
        return [t.event() for t in self.transitions]

    # -- the scheduling process --------------------------------------------
    def _run(self):
        while True:
            if self.pending_remaps:
                yield from self._idle_failover()
                continue
            if self._events and self._events[0].at <= self.sim.now:
                spec = self._events.pop(0)
                self._busy += 1
                try:
                    yield from self._transition(spec)
                finally:
                    self._ended()
                continue
            if not self._events and not self._spares_left():
                return
            delay = self.poll_interval
            if self._events:
                delay = min(delay, max(1, self._events[0].at - self.sim.now))
            yield self.sim.timeout(delay)

    def _spares_left(self) -> bool:
        return any(t.dormant for t in self.soc.spare_tiles)

    def _await_quiescent(self):
        entry = self.chain.entry
        while not entry.quiescent:
            yield self.sim.timeout(self.quiesce_poll)

    # -- spare failover ----------------------------------------------------
    def _idle_failover(self):
        """Handle a tile failure noticed outside any watchdog recovery."""
        entry = self.chain.entry
        entry.freeze()
        yield from self._await_quiescent()
        if self.pending_remaps:
            # not already drained by a concurrent watchdog recovery
            yield from self.execute_remaps(trigger="manager")
        entry.thaw()

    def execute_remaps(self, trigger: str = "manager"):
        """Remap every pending dead tile onto a spare (chain must be quiet).

        Idempotent and re-entrant: the watchdog calls this from its
        recovery path before replaying an aborted block, the manager from
        :meth:`_idle_failover`; whoever arrives first drains the queue.
        """
        self._busy += 1
        try:
            yield from self._execute_remaps(trigger)
        finally:
            self._ended()

    def _ended(self) -> None:
        """A transition or remap ended; report when none is left in flight."""
        self._busy -= 1
        if not self._busy and self._on_idle is not None:
            self._on_idle()

    def _execute_remaps(self, trigger: str):
        while self.pending_remaps:
            failed = self.pending_remaps.pop(0)
            requested_at = self._failure_times.pop(failed.name, self.sim.now)
            quiesced_at = self.sim.now
            words = self.reprogram_words
            budget = (self.failure_allowance + words * self.bus.word_time
                      + self.transition_slack)
            spare = self.soc.take_spare()
            if spare is None:
                self._record(ModeTransition(
                    index=len(self.transitions), trigger="tile_failure",
                    detail=failed.name, requested_at=requested_at,
                    quiesced_at=quiesced_at, completed_at=self.sim.now,
                    budget=budget, bus_words=0,
                    block_sizes=dict(self._result.block_sizes),
                    accepted=False, reason="no-spare", via=trigger,
                ))
                continue
            self.chain.remap_tile(failed, spare)
            yield from self.bus.transfer(words, label=f"remap:{failed.name}")
            self._record(ModeTransition(
                index=len(self.transitions), trigger="tile_failure",
                detail=f"{failed.name}->{spare.name}",
                requested_at=requested_at, quiesced_at=quiesced_at,
                completed_at=self.sim.now, budget=budget, bus_words=words,
                block_sizes=dict(self._result.block_sizes), via=trigger,
                system=self.system,
            ))

    # -- stream churn ------------------------------------------------------
    def _transition(self, spec: FaultSpec):
        entry = self.chain.entry
        requested_at = self.sim.now
        target = spec.target

        def refuse(reason: str, quiesced_at: int | None = None) -> None:
            self._record(ModeTransition(
                index=len(self.transitions), trigger=spec.kind, detail=target,
                requested_at=requested_at,
                quiesced_at=self.sim.now if quiesced_at is None else quiesced_at,
                completed_at=self.sim.now, budget=0, bus_words=0,
                block_sizes=dict(self._result.block_sizes),
                accepted=False, reason=reason,
            ))

        # cheap validation before touching admission
        if spec.kind == STREAM_JOIN:
            if self._binding_factory is None:
                refuse("no-binding-factory")
                return
            if target in entry._by_name:
                refuse("already-bound")
                return
        else:
            if target not in entry._by_name:
                refuse("not-bound")
                return
            if len(self.system.streams) == 1:
                refuse("last-stream")
                return

        budget = (block_round_length(calibrated_system(self.system))
                  + self.transition_slack)
        entry.freeze()
        yield from self._await_quiescent()
        quiesced_at = self.sim.now

        if spec.kind == STREAM_JOIN:
            joining = StreamSpec(target, spec.throughput,
                                 int(spec.params["reconfigure"]))
            streams = (*self.system.streams, joining)
        else:
            streams = tuple(s for s in self.system.streams if s.name != target)
        candidate = replace(self.system, streams=streams)
        try:
            result = resolve_block_sizes(
                candidate, previous=self._result,
                c1_mode=self.c1_mode, eta_max=self.eta_max,
            )
        except ParameterError as exc:
            refuse(f"infeasible: {exc}", quiesced_at=quiesced_at)
            entry.thaw()
            return
        sizes = dict(result.block_sizes)
        if spec.kind == STREAM_JOIN and spec.params.get("block_size"):
            # a caller-supplied η is honoured as a floor (a larger block
            # only loosens the joiner's own Eq. 5 constraint)
            sizes[target] = max(sizes[target], int(spec.params["block_size"]))
        sizes = self._quantize(candidate, sizes)
        new_system = candidate.with_block_sizes(sizes)

        words = self.reprogram_words * max(1, len(streams))
        budget += words * self.bus.word_time
        if spec.kind == STREAM_LEAVE:
            binding = entry.remove_binding(target)
        yield from self.bus.transfer(words, label=f"mode:{len(self.transitions)}")
        if spec.kind == STREAM_JOIN:
            binding = self._binding_factory(new_system.stream(target),
                                            sizes[target])
            entry.add_binding(binding)
            self.chain.bindings[target] = binding
        for name, eta in sizes.items():
            b = entry._by_name.get(name)
            if b is not None and b.eta != eta:
                b.eta = eta
        self.system = new_system
        self._result = replace(result, block_sizes=dict(sizes))
        self._retune_watchdog(new_system)
        entry.thaw()
        if spec.kind == STREAM_LEAVE and self._on_stream_left is not None:
            self._on_stream_left(binding)
        self._record(ModeTransition(
            index=len(self.transitions), trigger=spec.kind, detail=target,
            requested_at=requested_at, quiesced_at=quiesced_at,
            completed_at=self.sim.now, budget=budget, bus_words=words,
            block_sizes=dict(sizes), system=new_system,
        ))

    def _retune_watchdog(self, system: GatewaySystem) -> None:
        """Re-derive per-stream watchdog budgets for the new mode.

        The harness seeds the watchdog with the calibrated τ̂ bound per
        *initial* stream; after a transition the mode has a different
        round, and a joined stream would otherwise fall back to the huge
        catch-all default budget — turning a tile failure under its block
        into a 100k-cycle detection latency.
        """
        wd = self.chain.entry.watchdog
        if wd is None or not wd.budgets:
            return
        cal = calibrated_system(system)
        wd.budgets = {s.name: tau_hat(cal, s.name) for s in system.streams}

    def _quantize(self, system: GatewaySystem, sizes: dict[str, int]) -> dict[str, int]:
        """Round block sizes up to whole output blocks, Eq. 5 preserved.

        The ILP knows nothing about the chain's output ratio; when the
        ratio's denominator is ``d > 1`` every η must be a multiple of
        ``d``.  Rounding one η up grows the round length, so the others are
        re-checked with the closed-form Eq. 5 requirement until stable.
        """
        denom = 1
        for b in self.chain.bindings.values():
            denom = max(denom, b.output_ratio.denominator)
        if denom == 1:
            return sizes

        def up(x: int) -> int:
            return -(-x // denom) * denom

        sizes = {k: up(v) for k, v in sizes.items()}
        c0 = system.c0
        flush = system.flush_stages
        n = len(system.streams)
        r_sum = sum(s.reconfigure for s in system.streams)
        for _ in range(2 * n + 2):
            changed = False
            for s in system.streams:
                others = sum(v for k, v in sizes.items() if k != s.name)
                c1 = r_sum if self.c1_mode == "sum" else s.reconfigure
                den = 1 - c0 * s.throughput
                if den <= 0:
                    return sizes
                need = up(max(1, ceil(
                    s.throughput * (c1 + c0 * (others + flush * n)) / den
                )))
                if sizes[s.name] < need:
                    sizes[s.name] = need
                    changed = True
            if not changed:
                break
        return sizes

    # -- bookkeeping -------------------------------------------------------
    def _record(self, transition: ModeTransition) -> None:
        self.transitions.append(transition)
        if self.tracer:
            kind = {
                STREAM_JOIN: Kind.STREAM_JOIN,
                STREAM_LEAVE: Kind.STREAM_LEAVE,
                "tile_failure": Kind.TILE_REMAP,
            }.get(transition.trigger, Kind.MODE_CHANGE)
            self.tracer.log(self.sim.now, "reconfig", kind,
                            detail=transition.detail,
                            accepted=transition.accepted,
                            reason=transition.reason,
                            latency=transition.latency,
                            budget=transition.budget,
                            within_budget=transition.within_budget)
