"""Drive a :class:`~repro.core.params.GatewaySystem` on the cycle-level MPSoC.

This is the glue between the analysis model and the architecture
simulation: given the parameter object the temporal analysis reasons
about, it instantiates a matching MPSoC — one accelerator tile per
:class:`~repro.core.params.AcceleratorSpec` (firing duration ``ρ``), an
input and an output C-FIFO per stream, the entry/exit-gateway pair in
between — runs it for a number of blocks per stream, and hands back the
observability layer: per-stream :class:`~repro.sim.metrics.StreamMetrics`,
the gateway utilization breakdown, and the Eq. 2–5 bound-conformance
report of :mod:`repro.core.conformance`.

Streams are *backlogged*: when a stream is bound, every input word it can
consume is already resident in its input C-FIFO
(:meth:`~repro.arch.cfifo.CFifo.preload`), so whenever the entry gateway
looks a whole block waits (the paper's admission condition 2).  That is
the regime the τ̂/ε̂/γ/throughput bounds assume, and no producer is
simulated: the input FIFOs carry only the read-pointer updates the
gateway's fetches post.  The consumer is free in the same sense: each
output C-FIFO has room for every word its stream can emit, so no consumer
is simulated either, and a stream is done once its outputs are resident
in the consumer's memory.  The entry gateway admits exactly ``blocks``
blocks per stream, and the run ends on one event, fired when every stream
is done (or failed, or left) and no reconfiguration work is pending.

Each tile mounts a stand-in accelerator that passes every sample through
unchanged.  A harness run measures timing only: a tile's firing takes the
spec's ``ρ`` cycles whatever the kernel computes, and no metric, digest or
report reads a word's value.  What the bounds do depend on is the size of
the context the gateways save and restore on a stream switch, so the
stand-in keeps the context of a mixer tuned to 0 Hz (two bus words).  A
real mixer in its place costs a 16-step CORDIC rotation per sample and
changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..accel.base import StreamKernel
from ..core.conformance import (
    AttributedReport,
    ConformanceReport,
    ModalConformanceReport,
    attribute_conformance,
    attribute_modal_conformance,
    calibrated_system,
    check_conformance,
    check_modal_conformance,
)
from ..core.params import GatewaySystem, StreamSpec
from ..core.timing import tau_hat
from ..sim.metrics import (
    GatewayUtilization,
    StreamMetrics,
    fastpath_summary,
    gateway_utilization,
)
from ..sim import SimulationError, Simulator
from ..sim.faults import (
    AdmissionController,
    FaultInjector,
    FaultPlan,
    StreamRequirement,
    WatchdogConfig,
)
from ..sim.trace import Kind
from .cfifo import CFifo
from .gateway import StreamBinding
from .reconfig import ReconfigurationManager
from .system import MPSoC, SharedChain

__all__ = ["SimulationRun", "SimulationStalled", "simulate_system"]


#: the stand-in accelerator's context: that of a mixer tuned to 0 Hz
_CONTEXT = {"freq_over_fs": 0.0, "phase": 0.0}


class _PassThrough(StreamKernel):
    """The harness's stand-in accelerator: ``ρ`` cycles, output = input.

    Its saved and restored context is :data:`_CONTEXT`, so context switches
    cost what they cost on a mixer tile (see the module docstring).
    """

    def __init__(self, rho: int = 1) -> None:
        self.rho = rho
        self._context = dict(_CONTEXT)

    def process(self, sample: Any) -> list:
        return [sample]

    def get_state(self) -> dict[str, Any]:
        return dict(self._context)

    def set_state(self, state: dict[str, Any]) -> None:
        self._context = dict(state)


class SimulationStalled(SimulationError):
    """``simulate_system`` reached its cycle cap (``max_cycles``, or the
    conservative deadlock cap) before every stream completed or failed.
    The message names the stalled gateways and streams; ``run`` is the run
    as it stood at the cap."""

    def __init__(self, diagnostic: str,
                 run: "SimulationRun | None" = None) -> None:
        super().__init__(diagnostic)
        self.diagnostic = diagnostic
        self.run = run


@dataclass
class SimulationRun:
    """A completed gateway-system simulation plus its observability hooks."""

    system: GatewaySystem
    soc: MPSoC
    chain: SharedChain
    blocks: int
    poll_interval: int
    horizon: int = field(default=0)
    injector: FaultInjector | None = field(default=None)
    watchdog: WatchdogConfig | None = field(default=None)
    admission: AdmissionController | None = field(default=None)
    #: online-reconfiguration manager, set on churn runs (joins/leaves
    #: scheduled, or spare tiles provisioned); None on static runs
    reconfig: ReconfigurationManager | None = field(default=None)

    def metrics(self) -> dict[str, StreamMetrics]:
        """Per-stream observed metrics, in round-robin order."""
        return self.chain.stream_metrics()

    def utilization(self) -> GatewayUtilization:
        """Entry-gateway cycle breakdown over the run."""
        return gateway_utilization(self.chain.entry, self.horizon)

    def fastpath(self) -> dict:
        """Fused-data-path take rates for the ring and its FIFOs/channels."""
        return fastpath_summary(self.soc.ring)

    def conformance(self, calibrated: bool = True) -> ConformanceReport:
        """Observed-vs-bound report (Eq. 2–5).

        With ``calibrated=True`` (the default) the bounds are instantiated
        with the architecture's measured per-sample costs, the regime in
        which zero violations are expected; ``calibrated=False`` checks
        against the bare model parameters, which the simulated overheads
        legitimately exceed — useful for seeing how much calibration the
        architecture needs.
        """
        model = calibrated_system(self.system) if calibrated else self.system
        slack = self.poll_interval * len(self.system.streams)
        return check_conformance(model, self.metrics().values(), wait_slack=slack)

    def mode_conformance(self, calibrated: bool = True) -> ModalConformanceReport:
        """Per-mode Eq. 2–5 conformance of a churn run.

        Each steady mode between transitions is checked against its own
        stream set and block sizes; wait/turnaround chains reset at every
        transition, and the transitions' quiesce/reprogram intervals fall
        between the windows, where no steady-state bound applies.
        """
        if self.reconfig is None:
            raise SimulationError(
                "mode_conformance needs a churn run (no reconfiguration "
                "manager was armed); use conformance() for static runs"
            )
        windows = self.reconfig.mode_windows()
        slack = (self.poll_interval
                 * max(len(w.system.streams) for w in windows)
                 + self.reconfig.quiesce_poll)
        return check_modal_conformance(
            windows, self.chain.bindings, wait_slack=slack,
            calibrate=calibrated,
        )

    def attributed_conformance(self, calibrated: bool = True) -> AttributedReport:
        """Conformance report with every violation traced to injected faults.

        On a fault-free run this degenerates to the plain report with zero
        injected events; with a fault plan, ``fully_attributed`` is the
        property to assert — an unattributed violation is a genuine
        refinement bug, not fault fallout.  On a churn run the per-mode
        report is attributed, with the transition records themselves as
        secondary causes (a block aborted by a mid-block tile failure
        legitimately blows τ̂; the transition explains it).
        """
        events = self.injector.events if self.injector is not None else []
        if self.reconfig is not None:
            modal = self.mode_conformance(calibrated=calibrated)
            secondary = self.reconfig.transition_events()
            times = [e["time"] for e in events] + [e["time"] for e in secondary]
            if times:
                first = min(times)
                secondary = secondary + [
                    r for r in self.chain.entry.recovery_log
                    if r["time"] >= first
                ]
            return attribute_modal_conformance(modal, events,
                                               secondary=secondary)
        # recovery actions (watchdog flush, degrade/readmit pause) taken
        # after the first real fault are fault fallout: violations they
        # cause are explained, not refinement bugs
        secondary = []
        if events:
            first = min(e["time"] for e in events)
            secondary = [r for r in self.chain.entry.recovery_log
                         if r["time"] >= first]
        return attribute_conformance(
            self.conformance(calibrated=calibrated), events,
            self.chain.bindings, secondary=secondary,
        )

    def fault_report(self) -> dict:
        """Recovery outcome of the run: injected faults, per-stream recovery
        counters, the entry gateway's recovery log and the attribution of
        any bound violations."""
        attributed = self.attributed_conformance()
        streams = {}
        for name, m in self.metrics().items():
            streams[name] = {
                "blocks_done": m.blocks_done,
                "retries": m.retries,
                "watchdog_timeouts": m.watchdog_timeouts,
                "recovery_cycles": m.recovery_cycles,
                "recovery_latencies": list(m.recovery_latencies),
                "degraded_cycles": m.degraded_cycles,
                "failed": m.failed,
                "recovered": m.recovered,
            }
        report = {
            "injected": [dict(e) for e in attributed.injected],
            "streams": streams,
            "recovery_log": [dict(r) for r in self.chain.entry.recovery_log],
            "violations": len(attributed.attributions),
            "fully_attributed": attributed.fully_attributed,
            "unattributed": [v.to_dict() for v in attributed.unattributed],
        }
        if self.reconfig is not None:
            report["transitions"] = [
                t.to_dict() for t in self.reconfig.transitions
            ]
            report["remaps"] = [list(r) for r in self.chain.remaps]
        return report


def simulate_system(
    system: GatewaySystem,
    blocks: int = 4,
    trace: bool = True,
    poll_interval: int = 1,
    context_mode: str = "software",
    faults: FaultPlan | None = None,
    watchdog: WatchdogConfig | None = None,
    admission: AdmissionController | bool | None = None,
    max_cycles: int | None = None,
    spares: int = 0,
    no_fastpath: bool = False,
) -> SimulationRun:
    """Simulate ``system`` with ``blocks`` backlogged blocks per stream.

    Every stream must have a block size assigned (run Algorithm 1 first).
    The entry gateway admits ``blocks`` blocks per stream (the bindings'
    ``block_quota``).  Returns once every stream has completed them and
    every output word it emitted is resident at the consumer, or has
    failed or left; a run that reaches its cycle cap first raises
    :class:`SimulationStalled`, whose message names the stalled gateways
    and streams.

    A non-empty ``faults`` plan arms a :class:`~repro.sim.faults.FaultInjector`
    and (unless overridden) a default watchdog whose per-stream budgets are
    the calibrated τ̂ block-time bounds, plus an admission controller built
    from the streams' μ requirements.  Pass a ``watchdog`` explicitly to
    guard a fault-free run, or ``admission=False`` to disable degradation.

    ``max_cycles``, when given, replaces the conservative deadlock cap.

    ``no_fastpath=True`` disables the ring's fused fast path for this run
    (equivalent to the ``REPRO_NO_FASTPATH=1`` environment kill switch) —
    observable behaviour must not change, only execution speed.

    A plan containing ``stream_join``/``stream_leave`` requests — or a
    positive ``spares`` count (dormant cold-spare tiles for permanent-
    tile-failure failover) — switches the run into **churn mode**: a
    :class:`~repro.arch.reconfig.ReconfigurationManager` executes the
    requests as hitless online mode transitions, and the run also waits
    until no request is pending and no transition is in flight.

    Every stream's C-FIFOs hold, from the moment the stream is bound,
    everything it reads and emits in its ``blocks`` blocks: the input is
    preloaded with, and the output has room for, ``η·blocks`` words on a
    static run and ``blocks·max(eta_max, η)`` on a churn run, where a
    join's requested ``block_size`` may bind a joiner above ``eta_max``.
    ``eta_max = 2·(max η·blocks + 8)`` caps online re-solves.  The cap
    stays because it bounds each churn stream's preload, and so what a
    run simulates; it is also what refuses most refused joins, so raising
    it would change which joins a run admits.
    """
    system.require_block_sizes()
    churn = spares > 0 or bool(faults is not None and faults.churn)
    kernels = [_PassThrough(spec.rho) for spec in system.accelerators]

    soc = MPSoC(
        n_stations=4 + len(kernels),
        trace=trace,
        trace_kinds=Kind.METRICS if trace else None,
    )
    if no_fastpath:
        # per-run override of the fused ring fast path (the differential
        # suite and the REPRO_NO_FASTPATH CI leg compare against this)
        soc.ring.fastpath = False
    # the stations the input words come from and the output words go to:
    # no task runs on either, but the input FIFOs' read-pointer updates
    # travel to the first and the output words to the second
    producer_station = soc.claim_station()
    consumer_station = soc.claim_station()
    entry_station = 2
    exit_station = entry_station + len(kernels) + 1
    eta_max = 2 * (max(s.block_size for s in system.streams) * blocks + 8)

    def stream_fifos(name: str, words: int) -> tuple[CFifo, CFifo]:
        """A stream's input C-FIFO, holding all ``words`` it will read, and
        its output C-FIFO, with room for all it will emit (the stand-in
        accelerator passes every sample through)."""
        in_fifo = soc.software_fifo(producer_station, entry_station,
                                    capacity=words, name=f"{name}.in")
        in_fifo.preload(map(float, range(words)))
        out_fifo = soc.software_fifo(exit_station, consumer_station,
                                     capacity=words, name=f"{name}.out")
        return in_fifo, out_fifo

    configs = []
    for spec in system.streams:
        eta = spec.block_size
        in_fifo, out_fifo = stream_fifos(
            spec.name, blocks * max(eta_max, eta) if churn else eta * blocks)
        configs.append({
            "name": spec.name,
            "eta": eta,
            "in_fifo": in_fifo,
            "out_fifo": out_fifo,
            "states": [dict(_CONTEXT) for _ in kernels],
            "reconfigure_cycles": spec.reconfigure,
        })
    completion = _Completion(soc.sim)

    injector = None
    if faults is not None and len(faults):
        injector = FaultInjector(faults, soc.sim,
                                 tracer=soc.tracer if trace else None)
    wd = watchdog
    adm = admission if isinstance(admission, AdmissionController) else None
    if injector is not None or wd is not None:
        cal = calibrated_system(system)
        if wd is None:
            # budget = calibrated block-time bound + generous slack for
            # injected per-flit delays that stay within recoverable range
            budgets = {s.name: tau_hat(cal, s.name) for s in system.streams}
            wd = WatchdogConfig(budgets=budgets, slack=256)
        if adm is None and admission is not False and len(system.streams) > 1:
            adm = AdmissionController([
                StreamRequirement(
                    name=s.name, mu=s.throughput,
                    tau=tau_hat(cal, s.name), eta=s.block_size,
                )
                for s in system.streams
            ])
        # a failed stream never completes: count it as done
        user_failed_cb = wd.on_stream_failed

        def _on_stream_failed(name: str) -> None:
            completion.mark_done(name)
            if user_failed_cb is not None:
                user_failed_cb(name)

        wd.on_stream_failed = _on_stream_failed

    chain = soc.shared_chain(
        "sys", kernels, configs,
        entry_copy=system.entry_copy, exit_copy=system.exit_copy,
        ni_capacity=system.ni_capacity, poll_interval=poll_interval,
        context_mode=context_mode,
        watchdog=wd, admission=adm, fault_injector=injector,
    )
    chain.exit.on_quota = completion.quota_reached
    for binding in chain.bindings.values():
        binding.block_quota = blocks
        completion.track()

    reconfig = None
    if churn:
        for i in range(spares):
            soc.add_spare_tile(f"sys.spare{i}")
        failure_allowance = 0
        if wd is not None:
            failure_allowance = (
                max(wd.budgets.values(), default=wd.default_budget)
                + wd.slack + wd.settle_cycles * wd.settle_rounds
                + wd.backoff_cap
            )

        def _joined_binding(spec: StreamSpec, eta: int) -> StreamBinding:
            in_fifo, out_fifo = stream_fifos(spec.name,
                                             blocks * max(eta_max, eta))
            if injector is not None and injector.can_fire("cfifo"):
                in_fifo.fault_injector = injector
                out_fifo.fault_injector = injector
            completion.track()
            return StreamBinding(
                name=spec.name, eta=eta, in_fifo=in_fifo, out_fifo=out_fifo,
                states=[dict(_CONTEXT) for _ in kernels],
                reconfigure_cycles=spec.reconfigure, block_quota=blocks,
            )

        reconfig = ReconfigurationManager(
            soc, chain, system,
            binding_factory=_joined_binding,
            on_stream_left=lambda b: completion.mark_done(b.name),
            on_idle=completion.check,
            eta_max=eta_max,
            failure_allowance=failure_allowance,
        )
        completion.reconfig = reconfig
        if faults is not None:
            reconfig.schedule_plan(faults)
        reconfig.start()

    # Conservative cap in case a configuration deadlocks; the normal exit is
    # the completion event, so the measurement horizon is not inflated by
    # post-completion polling.
    max_eta = max(s.block_size for s in system.streams)
    max_r = max(s.reconfigure for s in system.streams)
    per_sample = system.entry_copy + sum(a.rho + 4 for a in system.accelerators) + 30
    cap = ((max_r + max_eta * per_sample) * blocks
           * (len(system.streams) + 2) + 10_000)
    if wd is not None:
        # recovery runs legitimately take much longer: budget the retries,
        # flush settling, backoff and degradation windows on top
        per_block_recovery = (wd.retry_limit + 1) * (
            wd.default_budget + wd.slack
            + wd.settle_cycles * wd.settle_rounds + wd.backoff_cap
        )
        cap += per_block_recovery * blocks * len(system.streams) + 100_000
        if adm is not None:
            cap += adm.healthy_window * len(system.streams)
    if churn:
        # transitions quiesce the chain and failures replay blocks; budget
        # each scheduled request and provisioned spare generously on top
        cap += 200_000 * (len(reconfig._events) + spares + 1)
    if max_cycles is not None:
        cap = max_cycles
    finished = soc.sim.run_until(completion.stop, cap)
    run = SimulationRun(
        system=system, soc=soc, chain=chain, blocks=blocks,
        poll_interval=poll_interval, horizon=max(1, soc.sim.now),
        injector=injector, watchdog=wd, admission=adm, reconfig=reconfig,
    )
    if not finished:
        # a stream that neither completed nor failed: returned, its
        # metrics would read as a clean run
        raise SimulationStalled(
            _stall_diagnostic(chain, blocks, soc.sim.now, cap), run)
    return run


class _Completion:
    """The one event that ends a harness run, static or churn.

    A stream is done once it has completed its ``block_quota`` blocks and
    every output word it emitted is resident in its output C-FIFO, or once
    it failed or left.  The run is complete once every tracked stream is
    done and the reconfiguration manager, if any, is
    :attr:`~repro.arch.reconfig.ReconfigurationManager.idle`.  That
    condition is checked only where one of its inputs changes — the exit
    gateway's quota hook, the watchdog's failure callback and the
    manager's leave and idle hooks — and :attr:`stop` ends the first time
    it holds.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._complete = sim.event()
        #: the process the run stops on: it ends when the run is complete
        self.stop = sim.process(self._until_complete(), name="harness.stop")
        self.reconfig: ReconfigurationManager | None = None
        self._tracked = 0
        self._done: set[str] = set()

    def _until_complete(self):
        yield self._complete

    def track(self) -> None:
        """Count one more stream the run waits for."""
        self._tracked += 1

    def quota_reached(self, binding: StreamBinding) -> None:
        """Exit-gateway hook: the stream's last block left the chain."""
        self.sim.process(self._arrive(binding), name=f"arrive:{binding.name}")

    def _arrive(self, binding: StreamBinding):
        fifo = binding.out_fifo
        yield from fifo.wait_resident(fifo.words_put)
        self.mark_done(binding.name)

    def mark_done(self, name: str) -> None:
        if name not in self._done:
            self._done.add(name)
            self.check()

    def check(self) -> None:
        """End :attr:`stop` if the run is complete."""
        if (len(self._done) >= self._tracked
                and not self._complete.triggered
                and (self.reconfig is None or self.reconfig.idle)):
            self._complete.succeed()


def _stall_diagnostic(chain: SharedChain, blocks: int, now: int,
                      cap: int) -> str:
    """Name what is stuck: gateways, streams and channels with residue."""
    entry, exit_gw = chain.entry, chain.exit
    current = entry._current.name if entry._current is not None else None
    active = exit_gw._active.name if exit_gw._active is not None else None
    lines = [
        f"simulation stalled at cycle {cap} (last event at cycle {now}): "
        f"streams neither completed nor failed within the {cap}-cycle cap",
        f"  entry gateway: current stream={current}, "
        f"idle tokens={entry.idle.count}, blocks admitted={entry.blocks_admitted}",
        f"  exit gateway: active stream={active}, "
        f"draining={exit_gw._draining}, discarded={exit_gw.discarded}",
    ]
    for name, b in chain.bindings.items():
        if b.failed:
            state = "FAILED"
        elif b.paused_at is not None:
            state = f"paused since cycle {b.paused_at}"
        elif b.blocks_done < blocks or b.out_fifo.resident < b.samples_out:
            state = "STALLED"
        else:
            state = "done"
        lines.append(
            f"  stream {name}: {b.blocks_done}/{blocks} blocks, "
            f"in={b.samples_in} out={b.samples_out} "
            f"arrived={b.out_fifo.resident}, "
            f"retries={b.retries}, {state}"
        )
    for ch in chain.channels:
        if ch.buffered or ch.words_in_flight:
            lines.append(
                f"  channel {ch.name}: {ch.buffered} buffered, "
                f"{ch.words_in_flight} in flight"
            )
    return "\n".join(lines)
