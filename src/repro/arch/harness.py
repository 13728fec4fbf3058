"""Drive a :class:`~repro.core.params.GatewaySystem` on the cycle-level MPSoC.

This is the glue between the analysis model and the architecture
simulation: given the parameter object the temporal analysis reasons
about, it instantiates a matching MPSoC — one accelerator tile per
:class:`~repro.core.params.AcceleratorSpec` (firing duration ``ρ``), one
backlogged producer/consumer pair per stream, the entry/exit-gateway pair
in between — runs it for a number of blocks per stream, and hands back the
observability layer: per-stream :class:`~repro.sim.metrics.StreamMetrics`,
the gateway utilization breakdown, and the Eq. 2–5 bound-conformance
report of :mod:`repro.core.conformance`.

Streams are fed *backlogged* (every input sample available up front), the
regime under which the τ̂/ε̂/γ/throughput comparisons are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel import MixerKernel
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
    stream_metrics,
)
from ..sim import Signal, SimulationError, Simulator
from ..sim.faults import (
    AdmissionController,
    FaultInjector,
    FaultPlan,
    StreamRequirement,
    WatchdogConfig,
)
from ..sim.trace import Kind
from .gateway import StreamBinding
from .reconfig import ReconfigurationManager
from .scheduler import Get, Put, TaskSpec
from .system import MPSoC, SharedChain

__all__ = ["SimulationRun", "SimulationStalled", "simulate_system"]


class SimulationStalled(SimulationError):
    """``simulate_system`` hit its ``max_cycles`` guard before the streams
    drained.  The message names the stalled gateways and streams."""

    def __init__(self, diagnostic: str) -> None:
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


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
        tracer = self.soc.tracer if self.soc.tracer.enabled else None
        return {
            name: stream_metrics(binding, tracer)
            for name, binding in self.chain.bindings.items()
        }

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
    trace_mode: str = "full",
    trace_capacity: int | None = None,
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
    Returns once all streams' outputs have been drained or the conservative
    horizon is reached.

    A non-empty ``faults`` plan arms a :class:`~repro.sim.faults.FaultInjector`
    and (unless overridden) a default watchdog whose per-stream budgets are
    the calibrated τ̂ block-time bounds, plus an admission controller built
    from the streams' μ requirements.  Pass a ``watchdog`` explicitly to
    guard a fault-free run, or ``admission=False`` to disable degradation.

    ``max_cycles``, when given, replaces the conservative deadlock cap and
    turns hitting it into a :class:`SimulationStalled` error whose message
    names the stalled gateways and streams.

    ``no_fastpath=True`` disables the ring's fused fast path for this run
    (equivalent to the ``REPRO_NO_FASTPATH=1`` environment kill switch) —
    observable behaviour must not change, only execution speed.

    A plan containing ``stream_join``/``stream_leave`` requests — or a
    positive ``spares`` count (dormant cold-spare tiles for permanent-
    tile-failure failover) — switches the run into **churn mode**: a
    :class:`~repro.arch.reconfig.ReconfigurationManager` executes the
    requests as hitless online mode transitions, streams are fed
    continuously instead of with a fixed backlog, and a stream counts as
    done once it has completed ``blocks`` blocks (or left, or failed).
    Static runs are cycle-for-cycle unchanged by this feature.
    """
    system.require_block_sizes()
    churn = spares > 0 or bool(faults is not None and faults.churn)
    kernels = []
    for spec in system.accelerators:
        k = MixerKernel(0.0)
        k.rho = spec.rho  # instance override of the class-level firing duration
        kernels.append(k)

    soc = MPSoC(
        n_stations=4 + len(kernels),
        trace=trace,
        trace_kinds=Kind.METRICS if trace else None,
        trace_mode=trace_mode,
        trace_capacity=trace_capacity,
    )
    if no_fastpath:
        # per-run override of the fused ring fast path (the differential
        # suite and the REPRO_NO_FASTPATH CI leg compare against this)
        soc.ring.fastpath = False
    prod = soc.add_processor("prod")
    cons = soc.add_processor("cons")
    entry_station = 2
    exit_station = entry_station + len(kernels) + 1

    # churn runs re-solve block sizes online, so fifo headroom must cover
    # grown η values and continuously-fed backlog, not just the fixed total
    cap_words = 4 * (max(s.block_size for s in system.streams) * blocks + 8)

    configs = []
    totals: dict[str, int] = {}
    for spec in system.streams:
        eta = spec.block_size
        total = eta * blocks
        totals[spec.name] = total
        capacity = cap_words if churn else total + 8
        in_fifo = prod.fifo_to(entry_station, capacity=capacity,
                               name=f"{spec.name}.in")
        out_fifo = soc.software_fifo(exit_station, cons, capacity=capacity,
                                     name=f"{spec.name}.out")
        configs.append({
            "name": spec.name,
            "eta": eta,
            "in_fifo": in_fifo,
            "out_fifo": out_fifo,
            "states": [MixerKernel(0.0).get_state() for _ in kernels],
            "reconfigure_cycles": spec.reconfigure,
        })
    drained = Signal(soc.sim, name="harness.drained")

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
        if not churn:
            # a failed stream will never drain; count it as done so the run
            # terminates instead of spinning to the cycle cap (churn runs
            # track failure through the per-stream watchers instead)
            user_failed_cb = wd.on_stream_failed

            def _on_stream_failed(name: str) -> None:
                drained.release(1)
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

    book = None
    reconfig = None
    if churn:
        for i in range(spares):
            soc.add_spare_tile(f"sys.spare{i}")
        book = _ChurnBook(soc.sim, drained, blocks)
        ratio = next(iter(chain.bindings.values())).output_ratio
        failure_allowance = 0
        if wd is not None:
            failure_allowance = (
                max(wd.budgets.values(), default=wd.default_budget)
                + wd.slack + wd.settle_cycles * wd.settle_rounds
                + wd.backoff_cap
            )

        def _joined_binding(spec: StreamSpec, eta: int) -> StreamBinding:
            in_fifo = soc.software_fifo(prod, entry_station,
                                        capacity=cap_words,
                                        name=f"{spec.name}.in")
            out_fifo = soc.software_fifo(exit_station, cons,
                                         capacity=cap_words,
                                         name=f"{spec.name}.out")
            if injector is not None and injector.can_fire("cfifo"):
                in_fifo.fault_injector = injector
                out_fifo.fault_injector = injector
            binding = StreamBinding(
                name=spec.name, eta=eta, in_fifo=in_fifo, out_fifo=out_fifo,
                states=[MixerKernel(0.0).get_state() for _ in kernels],
                output_ratio=ratio, reconfigure_cycles=spec.reconfigure,
            )
            book.track(binding)
            return binding

        reconfig = ReconfigurationManager(
            soc, chain, system,
            binding_factory=_joined_binding,
            on_stream_left=lambda b: book.mark_done(b.name),
            eta_max=max(1, cap_words // 2),
            failure_allowance=failure_allowance,
        )
        if faults is not None:
            reconfig.schedule_plan(faults)
        reconfig.start()
        for cfg in configs:
            book.track(chain.binding(cfg["name"]))
    else:
        def producer(fifo, count):
            def gen():
                for i in range(count):
                    yield Put(fifo, float(i))
            return gen

        def consumer(fifo, total_out):
            def gen():
                for _ in range(total_out):
                    yield Get(fifo)
                drained.release(1)
            return gen

        for cfg in configs:
            name, total = cfg["name"], totals[cfg["name"]]
            out_per_block = chain.binding(name).expected_out
            prod.add_task(TaskSpec(f"feed:{name}", producer(cfg["in_fifo"], total)))
            cons.add_task(TaskSpec(f"drain:{name}",
                                   consumer(cfg["out_fifo"], out_per_block * blocks)))
        prod.start()
        cons.start()

    # Conservative cap in case a configuration deadlocks; the normal exit is
    # the drain of every stream's last output, so the measurement horizon is
    # not inflated by post-completion polling.
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
    if churn:
        finished = soc.sim.run_while(
            lambda: not book.complete(reconfig), cap
        )
        if max_cycles is not None and not finished:
            raise SimulationStalled(_stall_diagnostic(chain, blocks, soc.sim.now))
    else:
        done = soc.sim.process(_wait_for(drained, len(configs)))
        if not soc.sim.run_until(done, cap) and max_cycles is not None:
            raise SimulationStalled(_stall_diagnostic(chain, blocks, soc.sim.now))
    return SimulationRun(
        system=system, soc=soc, chain=chain, blocks=blocks,
        poll_interval=poll_interval, horizon=max(1, soc.sim.now),
        injector=injector, watchdog=wd, admission=adm, reconfig=reconfig,
    )


class _ChurnBook:
    """Per-stream feeding, draining and completion tracking for churn runs.

    Static runs feed a fixed backlog and wait for a fixed output count;
    under churn neither is known up front (block sizes change online, and a
    leaving stream never drains its total), so every stream — initial or
    joined — gets a continuous feeder, a continuous drainer and a watcher
    that marks it done once it has completed the target number of blocks,
    failed, or left.
    """

    def __init__(self, sim: Simulator, drained: Signal, blocks: int,
                 poll: int = 64) -> None:
        self.sim = sim
        self.drained = drained
        self.blocks = blocks
        self.poll = max(1, int(poll))
        self.expected = 0
        self._done: set[str] = set()

    def track(self, binding: StreamBinding) -> None:
        """Feed, drain and watch one stream until it counts as done."""
        self.expected += 1
        self.sim.process(self._feed(binding), name=f"feed:{binding.name}")
        self.sim.process(self._drain(binding), name=f"drain:{binding.name}")
        self.sim.process(self._watch(binding), name=f"watch:{binding.name}")

    def mark_done(self, name: str) -> None:
        if name not in self._done:
            self._done.add(name)
            self.drained.release(1)

    def complete(self, reconfig: ReconfigurationManager) -> bool:
        """Every tracked stream done and no reconfiguration work pending."""
        return (len(self._done) >= self.expected
                and not reconfig._events
                and not reconfig.pending_remaps
                and not reconfig.busy)

    def _feed(self, binding: StreamBinding):
        # keep the input backlogged (the regime the bounds assume) without
        # ever blocking in put(): a done/left stream just stops being fed
        i = 0
        fifo = binding.in_fifo
        while binding.name not in self._done:
            if fifo.producer_space > 0:
                yield from fifo.put(float(i))
                i += 1
            else:
                yield self.sim.timeout(self.poll)

    def _drain(self, binding: StreamBinding):
        fifo = binding.out_fifo
        while binding.name not in self._done:
            ok, _word = fifo.try_get()
            if ok:
                yield self.sim.timeout(1)
            else:
                yield self.sim.timeout(self.poll)

    def _watch(self, binding: StreamBinding):
        while (binding.blocks_done < self.blocks
               and not binding.failed
               and binding.name not in self._done):
            yield self.sim.timeout(self.poll)
        self.mark_done(binding.name)


def _stall_diagnostic(chain: SharedChain, blocks: int, now: int) -> str:
    """Name what is stuck: gateways, streams and channels with residue."""
    entry, exit_gw = chain.entry, chain.exit
    current = entry._current.name if entry._current is not None else None
    active = exit_gw._active.name if exit_gw._active is not None else None
    lines = [
        f"simulation stalled at cycle {now} (max_cycles guard)",
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
        elif b.blocks_done < blocks:
            state = "STALLED"
        else:
            state = "done"
        lines.append(
            f"  stream {name}: {b.blocks_done}/{blocks} blocks, "
            f"in={b.samples_in} out={b.samples_out}, "
            f"retries={b.retries}, {state}"
        )
    for ch in chain.channels:
        if ch.buffered or ch.words_in_flight:
            lines.append(
                f"  channel {ch.name}: {ch.buffered} buffered, "
                f"{ch.words_in_flight} in flight"
            )
    return "\n".join(lines)


def _wait_for(signal: Signal, units: int):
    yield signal.acquire(units)
