"""Entry- and exit-gateways — the paper's mechanism (Sections III, IV-C).

The **entry-gateway** multiplexes blocks of data from several streams over a
chain of shared accelerator tiles under round-robin.  A block of stream
``s`` is admitted only when *all three* of the paper's conditions hold:

1. the pipeline is idle — the exit-gateway has signalled that every sample
   of the previous block left the chain (otherwise a context switch would
   corrupt in-flight data),
2. a full block of ``η_s`` input samples is available in the stream's input
   C-FIFO,
3. the consumer buffer has room for the whole block's output — the
   *check-for-space* that [8] lacks and without which no conservative CSDF
   model exists (Section V-G).

On admission the gateway context-switches the accelerators over the
configuration bus (``R_s`` cycles) and DMA-copies the block into the chain
at ``ε`` cycles per sample.  The **exit-gateway** converts the hardware
flow-controlled stream back to the software C-FIFO (``δ`` cycles per
sample) and raises the pipeline-idle signal after the block's last sample.

Utilisation counters mirror the paper's Section VI-A discussion: copy
cycles, reconfiguration cycles and idle time are accounted separately.

**Fault recovery** (optional): when the entry gateway is given a
:class:`~repro.sim.faults.WatchdogConfig`, every admitted block is guarded
by a watchdog timer set to the stream's γ_s turnaround bound plus slack.
On expiry the gateway aborts the block, flushes the chain to quiescence
(repairing credits and C-FIFO pointers lost to injected faults), rolls the
accelerator contexts back to their block-start state, and retransmits the
block with bounded exponential backoff — skipping output samples the exit
gateway already delivered, so the consumer sees each sample exactly once.
An optional :class:`~repro.sim.faults.AdmissionController` pauses
low-priority streams while recovery overhead breaks the Eq. 5 throughput
check and re-admits them after a healthy window.  Without a watchdog the
gateways behave cycle-for-cycle as the fault-free protocol.

**Lost flits and the watchdog budget.** A flit the fault injector drops
vanishes silently at ring level: its links are released, the drop is
counted (`DualRing.flits_dropped`), but its ``delivered`` event stays
pending *forever* — the ring offers no NACK, on either the compiled fast
path or the generator path (`tests/unit/test_ring_fastpath.py` pins the
two paths to identical drop accounting).  The watchdog timeout is
therefore the *only* bound on waiting for a lost flit: any protocol step
that parks on ring delivery must run under a guarded block whose γ_s
budget covers the full turnaround, which is exactly how the recovery
path above is structured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from ..sim import FifoQueue, Interrupt, Signal, SimulationError, Simulator, Tracer
from ..sim.trace import Kind
from .accelerator_tile import AcceleratorTile
from .cfifo import CFifo
from .config_bus import ConfigBus
from .ni import HardwareFifoChannel

__all__ = ["StreamBinding", "EntryGateway", "ExitGateway", "GatewayError"]

#: bound on back-to-back reconfiguration repeats under injected failures
_RECONFIG_RETRY_CAP = 16


class GatewayError(SimulationError):
    """Raised on malformed stream bindings or protocol violations."""


@dataclass
class StreamBinding:
    """Everything the gateway pair needs to serve one multiplexed stream."""

    name: str
    eta: int
    in_fifo: CFifo
    out_fifo: CFifo
    states: list[dict[str, Any]]
    output_ratio: Fraction = Fraction(1)
    reconfigure_cycles: int | None = None
    #: blocks the entry gateway admits for this stream before it stops
    #: (None: unbounded); the simulation harness sets it to its ``blocks``
    block_quota: int | None = None

    blocks_done: int = 0
    samples_in: int = 0
    samples_out: int = 0
    first_output_at: int | None = None
    last_output_at: int | None = None
    admissions: list[int] = field(default_factory=list)
    completions: list[int] = field(default_factory=list)

    # -- recovery bookkeeping (all zero on a fault-free run) ---------------
    retries: int = 0
    watchdog_timeouts: int = 0
    recovery_cycles: int = 0
    recovery_latencies: list[int] = field(default_factory=list)
    degraded_cycles: int = 0
    paused_at: int | None = None
    failed: bool = False

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise GatewayError(f"stream {self.name!r}: block size must be >= 1")
        out = self.eta * self.output_ratio
        if out.denominator != 1 or out == 0:
            raise GatewayError(
                f"stream {self.name!r}: η={self.eta} with output ratio "
                f"{self.output_ratio} does not yield a whole output block"
            )

    @property
    def expected_out(self) -> int:
        """Output samples produced by one block of ``eta`` inputs."""
        return int(self.eta * self.output_ratio)


class ExitGateway:
    """Hardware→software flow-control converter + pipeline-idle detector."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        input_channel: HardwareFifoChannel,
        idle: Signal,
        exit_copy: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.input = input_channel
        self.idle = idle
        self.exit_copy = int(exit_copy)
        self.tracer = tracer
        self._blocks = FifoQueue(sim, capacity=4, name=f"{name}.blocks")
        self.samples_forwarded = 0
        #: stale words consumed during watchdog flushes + retransmit dedup
        self.discarded = 0
        self._active: StreamBinding | None = None
        self._skip = 0
        self._delivered = 0
        self._abort_requested = False
        self._draining = False
        self._in_recv = False
        #: called with a binding when it completes its ``block_quota``-th
        #: block (the simulation harness's completion hook)
        self.on_quota: Callable[[StreamBinding], None] | None = None
        self._proc = sim.process(self._run(), name=f"exitgw:{name}")

    def begin_block(self, binding: StreamBinding, skip: int = 0) -> None:
        """Called by the entry-gateway right before it streams a block.

        ``skip`` output samples (already delivered by an aborted earlier
        attempt of the same block) are consumed and discarded instead of
        being forwarded, giving exactly-once delivery under retransmission.
        """
        if not self._blocks.try_put((binding, int(skip))):
            raise GatewayError(f"{self.name}: too many blocks in flight")

    # -- recovery interface (driven by the entry gateway's watchdog) -------
    def abort_current(self) -> None:
        """Abort the in-flight block and discard chain output until told to
        stop.  The in-flight output sample, if any, still completes — a word
        is either fully delivered or not delivered at all."""
        self._abort_requested = True
        self._draining = True
        while True:
            ok, _stale = self._blocks.try_get()
            if not ok:
                break
        if self._in_recv:
            self._proc.interrupt("watchdog-flush")

    def aborted_delivery(self) -> int:
        """Output samples of the aborted block delivered across all attempts.

        Only meaningful between :meth:`abort_current` and the next
        :meth:`begin_block`, once the chain has quiesced.
        """
        return self._skip + self._delivered

    def stop_drain(self) -> None:
        """End discard mode; the gateway re-arms for the next block."""
        self._draining = False
        self._abort_requested = False

    def _run(self):
        while True:
            try:
                binding, skip = yield self._blocks.get()
                self._active = binding
                self._skip, self._delivered = skip, 0
                aborted = False
                for i in range(binding.expected_out):
                    self._in_recv = True
                    word = yield from self.input.recv()
                    self._in_recv = False
                    if self._abort_requested:
                        self.discarded += 1
                        aborted = True
                        break
                    if i < skip:
                        # delivered by a previous attempt of this block
                        self.discarded += 1
                        continue
                    if self.exit_copy:
                        yield self.sim.timeout(self.exit_copy)
                    yield from binding.out_fifo.put(word)
                    self.samples_forwarded += 1
                    binding.samples_out += 1
                    if binding.first_output_at is None:
                        binding.first_output_at = self.sim.now
                    binding.last_output_at = self.sim.now
                    self._delivered += 1
                    if self._abort_requested:
                        aborted = True
                        break
                self._active = None
                if aborted:
                    yield from self._drain_loop()
                    continue
                binding.blocks_done += 1
                binding.completions.append(self.sim.now)
                if self.tracer:
                    admitted = binding.admissions[binding.blocks_done - 1]
                    self.tracer.log(self.sim.now, self.name, Kind.BLOCK_DONE,
                                    stream=binding.name,
                                    block=binding.blocks_done - 1,
                                    admitted_at=admitted,
                                    block_time=self.sim.now - admitted,
                                    samples=binding.expected_out)
                if (binding.blocks_done == binding.block_quota
                        and self.on_quota is not None):
                    self.on_quota(binding)
                # the pipeline is empty: allow the next block in
                self.idle.release(1)
            except Interrupt:
                self._in_recv = False
                self._active = None
                yield from self._drain_loop()

    def _drain_loop(self):
        """Consume and discard chain output (returning credits) while the
        entry gateway flushes the pipeline."""
        while self._draining:
            while True:
                ok, _word = self.input.try_recv()
                if not ok:
                    break
                self.discarded += 1
            yield self.sim.timeout(1)


class EntryGateway:
    """Round-robin block scheduler + DMA + context-switch driver."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tiles: list[AcceleratorTile],
        chain_input: HardwareFifoChannel,
        exit_gateway: ExitGateway,
        bindings: list[StreamBinding],
        config_bus: ConfigBus,
        entry_copy: int = 15,
        poll_interval: int = 1,
        context_mode: str = "software",
        shadow_switch_cycles: int = 4,
        tracer: Tracer | None = None,
        watchdog: Any = None,
        admission: Any = None,
        fault_injector: Any = None,
        channels: list[HardwareFifoChannel] | None = None,
    ) -> None:
        if not bindings:
            raise GatewayError("entry gateway needs at least one stream binding")
        if context_mode not in ("software", "shadow"):
            raise GatewayError(
                f"context_mode must be 'software' or 'shadow', got {context_mode!r}"
            )
        if shadow_switch_cycles < 1:
            raise GatewayError("shadow switch must take at least one cycle")
        for b in bindings:
            if len(b.states) != len(tiles):
                raise GatewayError(
                    f"stream {b.name!r}: {len(b.states)} contexts for {len(tiles)} tiles"
                )
        self.sim = sim
        self.name = name
        self.tiles = tiles
        self.chain_input = chain_input
        self.exit_gateway = exit_gateway
        self.bindings = list(bindings)
        self.config_bus = config_bus
        self.entry_copy = int(entry_copy)
        self.poll_interval = max(1, int(poll_interval))
        self.context_mode = context_mode
        self.shadow_switch_cycles = int(shadow_switch_cycles)
        self.tracer = tracer
        self.idle = exit_gateway.idle
        #: :class:`~repro.sim.faults.WatchdogConfig` or None (fault-free path)
        self.watchdog = watchdog
        #: :class:`~repro.sim.faults.AdmissionController` or None
        self.admission = admission
        #: :class:`~repro.sim.faults.FaultInjector` or None
        self.fault_injector = fault_injector
        self._channels = (
            list(channels)
            if channels is not None
            else [chain_input, *(t.output for t in tiles)]
        )
        #: chronological fault/timeout/retry/degrade events (dicts)
        self.recovery_log: list[dict[str, Any]] = []
        self._by_name = {b.name: b for b in self.bindings}
        self._last_progress = 0
        #: set when a flush gave up with the chain still holding state; no
        #: stream is admissible until the chain drains and the books settle
        self._dirty = False
        #: :class:`~repro.arch.reconfig.ReconfigurationManager` or None;
        #: when set, the recovery path executes pending tile remaps while
        #: the chain is quiesced (mid-block permanent-failure failover)
        self.reconfig = None
        #: admission freeze flag for hitless mode transitions: the
        #: reconfiguration manager freezes admission, waits for the
        #: in-flight block to drain, mutates the stream set, then thaws
        self._frozen = False
        if context_mode == "shadow":
            # preload every stream's context into every tile's shadow bank
            for binding in bindings:
                for i, tile in enumerate(tiles):
                    tile.install_shadow(binding.name, binding.states[i])

        self._current: StreamBinding | None = None
        self.copy_cycles = 0
        self.reconfig_cycles = 0
        self.wait_cycles = 0
        self.blocks_admitted = 0
        sim.process(self._run(), name=f"entrygw:{name}")

    # -- admission test -----------------------------------------------------
    def _ready(self, binding: StreamBinding) -> bool:
        """The paper's three admission conditions, all non-blocking.

        Failed, degradation-paused or transition-frozen streams are never
        admissible, and neither is a stream that has been admitted its
        ``block_quota`` blocks.
        """
        if (self._frozen or self._dirty or binding.failed
                or binding.paused_at is not None
                or (binding.block_quota is not None
                    and len(binding.admissions) >= binding.block_quota)):
            return False
        return (
            self.idle.count >= 1
            and binding.in_fifo.consumer_available >= binding.eta
            and binding.out_fifo.producer_space >= binding.expected_out
        )

    # -- online reconfiguration (driven by the ReconfigurationManager) ------
    def freeze(self) -> None:
        """Stop admitting blocks; the in-flight block (if any) completes."""
        self._frozen = True

    def thaw(self) -> None:
        """Resume admission after a mode transition."""
        self._frozen = False

    @property
    def quiescent(self) -> bool:
        """No block is in flight (the idle token is parked) and the chain
        holds no residue — the only state in which the stream set or the
        tile mapping may be mutated."""
        return self.idle.count >= 1 and self._chain_quiet()

    def add_binding(self, binding: StreamBinding) -> None:
        """Attach a new stream mid-run.  Only legal while frozen+quiescent."""
        if binding.name in self._by_name:
            raise GatewayError(f"stream {binding.name!r} is already bound")
        if len(binding.states) != len(self.tiles):
            raise GatewayError(
                f"stream {binding.name!r}: {len(binding.states)} contexts "
                f"for {len(self.tiles)} tiles"
            )
        self.bindings.append(binding)
        self._by_name[binding.name] = binding
        if self.context_mode == "shadow":
            for i, tile in enumerate(self.tiles):
                tile.install_shadow(binding.name, binding.states[i])

    def remove_binding(self, name: str) -> StreamBinding:
        """Detach a stream mid-run.  Only legal while frozen+quiescent."""
        binding = self._by_name.pop(name, None)
        if binding is None:
            raise GatewayError(f"no stream {name!r} bound to this gateway")
        self.bindings.remove(binding)
        if self._current is binding:
            # its contexts leave with it; force a clean load for whoever
            # is admitted next
            self._current = None
        return binding

    # -- context switch -----------------------------------------------------
    def _reconfigure(self, binding: StreamBinding):
        """Save the outgoing context, restore the incoming one (bus-timed).

        In ``software`` mode the switch pays the word-by-word bus transfer
        (or the binding's explicit ``R_s``); in ``shadow`` mode (the
        paper's future-work extension) it is a constant-time bank swap.
        An injected reconfiguration failure repeats the bus transfer.
        """
        start = self.sim.now
        if self._current is not binding:
            if self.context_mode == "shadow":
                outgoing = self._current.name if self._current else None
                for tile in self.tiles:
                    tile.activate_shadow(outgoing, binding.name)
                attempts = 0
                while True:
                    yield from self.config_bus.transfer_cycles(
                        self.shadow_switch_cycles, label=f"shadow:{binding.name}"
                    )
                    attempts += 1
                    if (
                        self.fault_injector is not None
                        and attempts < _RECONFIG_RETRY_CAP
                        and self.fault_injector.reconfig_fails(binding.name)
                    ):
                        continue
                    break
            else:
                if self._current is not None:
                    for i, tile in enumerate(self.tiles):
                        self._current.states[i] = tile.save_state()
                save_words = (
                    sum(t.state_words for t in self.tiles) if self._current else 0
                )
                attempts = 0
                while True:
                    for i, tile in enumerate(self.tiles):
                        tile.load_state(binding.states[i])
                    load_words = sum(t.state_words for t in self.tiles)
                    if binding.reconfigure_cycles is not None:
                        if binding.reconfigure_cycles > 0:
                            yield from self.config_bus.transfer_cycles(
                                binding.reconfigure_cycles, label=f"R:{binding.name}"
                            )
                    elif save_words + load_words > 0:
                        yield from self.config_bus.transfer(
                            save_words + load_words, label=f"ctx:{binding.name}"
                        )
                    attempts += 1
                    if (
                        self.fault_injector is not None
                        and attempts < _RECONFIG_RETRY_CAP
                        and self.fault_injector.reconfig_fails(binding.name)
                    ):
                        continue
                    break
            self._current = binding
        self.reconfig_cycles += self.sim.now - start
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.RECONFIGURE,
                            stream=binding.name, cycles=self.sim.now - start)

    # -- main loop ------------------------------------------------------------
    def _run(self):
        rr = 0
        while True:
            # one full rotation looking for an admissible stream
            admitted = False
            for offset in range(len(self.bindings)):
                binding = self.bindings[(rr + offset) % len(self.bindings)]
                if not self._ready(binding):
                    continue
                rr = (rr + offset + 1) % len(self.bindings)
                yield from self._process_block(binding)
                admitted = True
                self._last_progress = self.sim.now
                break
            if not admitted:
                self.wait_cycles += self.poll_interval
                yield self.sim.timeout(self.poll_interval)
                if self.watchdog is not None:
                    self._poll_maintenance()

    def _process_block(self, binding: StreamBinding):
        yield self.idle.acquire(1)
        self.blocks_admitted += 1
        binding.admissions.append(self.sim.now)
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.ADMIT,
                            stream=binding.name, eta=binding.eta,
                            block=len(binding.admissions) - 1)
        yield from self._reconfigure(binding)
        if self.watchdog is None:
            yield from self._run_block(binding)
        else:
            yield from self._run_block_guarded(binding)

    def _run_block(self, binding: StreamBinding):
        """The fault-free streaming path (cycle-exact legacy behaviour)."""
        self.exit_gateway.begin_block(binding)
        copy_start = self.sim.now
        for _ in range(binding.eta):
            word = yield from binding.in_fifo.get()
            if self.entry_copy:
                yield self.sim.timeout(self.entry_copy)
            yield from self.chain_input.send(word)
            binding.samples_in += 1
        self.copy_cycles += self.sim.now - copy_start
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.COPY,
                            stream=binding.name, samples=binding.eta,
                            cycles=self.sim.now - copy_start)
        # NOTE: the idle token is released by the exit gateway once the
        # block's last output sample has left the pipeline.

    # -- watchdog-guarded streaming (recovery path) -------------------------
    def _run_block_guarded(self, binding: StreamBinding):
        """Stream one block under a watchdog; flush + retransmit on expiry."""
        wd = self.watchdog
        budget = wd.budget_for(binding.name)
        retained: list[Any] = []    # input words fetched so far (replay source)
        delivered = 0               # output samples the consumer already has
        attempt = 0
        block_recovery = 0
        completions_before = len(binding.completions)
        while True:
            self.exit_gateway.begin_block(binding, skip=delivered)
            worker = self.sim.process(
                self._stream_and_wait(binding, retained),
                name=f"block:{binding.name}",
            )
            timer = self.sim.timeout(budget)
            idx, _value = yield self.sim.any_of([worker, timer])
            if idx == 0 or len(binding.completions) > completions_before:
                # block completed (idx == 1 means the timer tied with it)
                if not worker.processed:
                    yield worker
                if attempt:
                    self._log(Kind.RECOVERED, binding.name, retries=attempt,
                              recovery_cycles=block_recovery)
                self.idle.release(1)
                return
            # -- watchdog expired ------------------------------------------
            timeout_at = self.sim.now
            binding.watchdog_timeouts += 1
            self._log(Kind.WATCHDOG, binding.name, attempt=attempt,
                      budget=budget)
            if worker.is_alive:
                worker.interrupt("watchdog")
            self.exit_gateway.abort_current()
            flushed = yield from self._quiesce_chain()
            delivered = self.exit_gateway.aborted_delivery()
            attempt += 1
            if not flushed or attempt > wd.retry_limit:
                reason = "flush-failed" if not flushed else "retry-limit"
                if flushed:
                    self.exit_gateway.stop_drain()
                else:
                    # the chain still holds in-flight state (e.g. a tile
                    # stuck in a long stall): keep the exit draining and
                    # block all admission until the chain finally settles
                    self._dirty = True
                self._fail_stream(binding, reason, attempt)
                return
            if self.reconfig is not None and self.reconfig.pending_remaps:
                # a tile died under this block: remap the chain onto a
                # spare now, while it is provably quiet, then replay the
                # block through the repaired chain
                yield from self.reconfig.execute_remaps(trigger="watchdog")
            yield from self._rollback_contexts(binding)
            self.exit_gateway.stop_drain()
            backoff = wd.backoff(attempt)
            yield self.sim.timeout(backoff)
            recovery = self.sim.now - timeout_at
            binding.retries += 1
            binding.recovery_cycles += recovery
            binding.recovery_latencies.append(recovery)
            block_recovery += recovery
            self._log(Kind.RETRY, binding.name, attempt=attempt,
                      backoff=backoff, skip=delivered,
                      recovery_cycles=recovery)
            if self.admission is not None:
                paused = self.admission.note_recovery(
                    self.sim.now, binding.name, recovery
                )
                for name in paused:
                    self._pause_stream(name)

    def _stream_and_wait(self, binding: StreamBinding, retained: list[Any]):
        """One guarded streaming attempt: copy the block in, await idle.

        Words already fetched from the input C-FIFO in an earlier attempt
        are replayed from ``retained`` instead of being fetched again — the
        rolled-back accelerator contexts reproduce the same outputs, which
        the exit gateway dedups via its ``skip`` count.
        """
        copy_start = self.sim.now
        for i in range(binding.eta):
            if i < len(retained):
                word = retained[i]
            else:
                while True:
                    ok, word = binding.in_fifo.try_get()
                    if ok:
                        break
                    # a fault can briefly hide admitted words; poll instead of
                    # blocking so a watchdog interrupt can never tear a wait
                    yield self.sim.timeout(1)
                retained.append(word)
                binding.samples_in += 1
            if self.entry_copy:
                yield self.sim.timeout(self.entry_copy)
            yield from self.chain_input.send(word)
        self.copy_cycles += self.sim.now - copy_start
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.COPY,
                            stream=binding.name, samples=binding.eta,
                            cycles=self.sim.now - copy_start)
        # reclaim the idle token the exit gateway releases on completion
        yield self.idle.acquire(1)

    # -- flush / quiescence -------------------------------------------------
    def _chain_quiet(self) -> bool:
        """No tile is firing or holding outputs, no channel holds words.

        A permanently dead tile consumes nothing and computes nothing; its
        counters are frozen at zero by ``fail_permanently`` and its input
        is drained by :meth:`_repair_losses`, so quiescence remains
        reachable around it (the spare failover needs a quiet chain).
        """
        for tile in self.tiles:
            if getattr(tile, "dead", False):
                continue
            if tile.busy or tile.pending_out or tile.input.buffered:
                return False
        for ch in self._channels:
            if ch.buffered or ch.words_in_flight:
                return False
        return True

    def _quiesce_chain(self):
        """Drive the chain to a quiet state after an abort.

        Each settle round repairs fault-induced credit/pointer losses (so
        tiles blocked on dead credits can flush) and then checks for
        quiescence; two consecutive quiet rounds with a stable discard
        count mean the pipeline is drained.  Returns True on success.
        """
        wd = self.watchdog
        quiet = 0
        for _ in range(wd.settle_rounds):
            before = self.exit_gateway.discarded
            yield self.sim.timeout(wd.settle_cycles)
            self._repair_losses()
            if self._chain_quiet() and self.exit_gateway.discarded == before:
                quiet += 1
                if quiet >= 2:
                    return True
            else:
                quiet = 0
        return False

    def _repair_losses(self) -> None:
        """Settle the books on every channel and C-FIFO after faults."""
        inj = self.fault_injector
        for tile in self.tiles:
            # a dead tile never consumes again: discard whatever reached
            # its input (returning the credits) so the chain can quiesce
            # and the block be replayed through the remapped spare
            if not getattr(tile, "dead", False):
                continue
            discarded = 0
            while True:
                ok, _word = tile.input.try_recv()
                if not ok:
                    break
                discarded += 1
            if discarded:
                self._log(Kind.RESYNC, None, tile=tile.name,
                          dead_tile_drained=discarded)
        for ch in self._channels:
            data_drops = credit_drops = 0
            if inj is not None:
                data_drops, credit_drops = inj.claim_drops(ch.src, ch.dst)
            restored = ch.repair(data_drops, credit_drops)
            if restored:
                self._log(Kind.RESYNC, None, channel=ch.name,
                          credits=restored, data_drops=data_drops,
                          credit_drops=credit_drops)
        for binding in self.bindings:
            for fifo in (binding.in_fifo, binding.out_fifo):
                resync = getattr(fifo, "resync", None)
                if resync is None:
                    continue
                space, avail = resync()
                if space or avail:
                    self._log(Kind.RESYNC, binding.name, fifo=fifo.name,
                              space=space, avail=avail)

    def _rollback_contexts(self, binding: StreamBinding):
        """Reload the block-start accelerator contexts after a flush.

        The contexts parked at the stream's last switch-out are exactly its
        block-start state (nothing ran between), so a forced reconfigure
        restores determinism for the replay.
        """
        self._current = None
        yield from self._reconfigure(binding)

    # -- degradation ---------------------------------------------------------
    def _pause_stream(self, name: str) -> None:
        binding = self._by_name.get(name)
        if binding is None or binding.paused_at is not None or binding.failed:
            return
        binding.paused_at = self.sim.now
        self._log(Kind.DEGRADE, name)

    def _resume_stream(self, name: str) -> None:
        binding = self._by_name.get(name)
        if binding is None or binding.paused_at is None:
            return
        binding.degraded_cycles += self.sim.now - binding.paused_at
        binding.paused_at = None
        self._log(Kind.READMIT, name, degraded_cycles=binding.degraded_cycles)

    def _fail_stream(self, binding: StreamBinding, reason: str,
                     retries: int) -> None:
        binding.failed = True
        self._log(Kind.STREAM_FAILED, binding.name, reason=reason,
                  retries=retries)
        if self.admission is not None:
            self.admission.mark_failed(binding.name)
        # the failed stream's contexts were never saved back; force a full
        # reload on the next switch instead of saving corrupt state over it
        self._current = None
        wd = self.watchdog
        if wd is not None and wd.on_stream_failed is not None:
            wd.on_stream_failed(binding.name)
        # hand the admission token back so other streams keep flowing
        self.idle.release(1)

    def _poll_maintenance(self) -> None:
        """Between admissions: dirty-chain settling, re-admission ticks and
        stall resyncs."""
        if self._dirty:
            self._repair_losses()
            if self._chain_quiet():
                self._dirty = False
                self.exit_gateway.stop_drain()
                self._log(Kind.RESYNC, None, chain_drained=True)
        if self.admission is not None:
            for name in self.admission.tick(self.sim.now):
                self._resume_stream(name)
        if self.sim.now - self._last_progress >= self.watchdog.stall_resync_after:
            self._repair_losses()
            self._last_progress = self.sim.now

    def _log(self, kind: str, stream: str | None, **data: Any) -> None:
        record = {"time": self.sim.now, "kind": kind, "stream": stream, **data}
        self.recovery_log.append(record)
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, kind, stream=stream, **data)
