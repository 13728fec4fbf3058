"""MPSoC builder: tiles + dual ring + gateways in one object (Fig. 1).

:class:`MPSoC` owns the simulator, the dual-ring interconnect and the
configuration bus, hands out ring stations, and wires the four tile types
together.  The :meth:`shared_chain` helper builds the paper's entire
gateway construct — entry-gateway tile, accelerator tiles, exit-gateway
tile, NI channels with ``α = 2`` capacity — in one call, mirroring how the
"support library abstracts the implementation details and allows a
programmer to simply connect blocks of functionality" (Section IV-B).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from ..accel.base import StreamKernel
from ..sim import Signal, SimulationError, Simulator, Tracer
from .accelerator_tile import AcceleratorTile
from .cfifo import CFifo
from .config_bus import ConfigBus
from .gateway import EntryGateway, ExitGateway, StreamBinding
from .ni import HardwareFifoChannel
from .processor import ProcessorTile
from .ring import DualRing

__all__ = ["MPSoC", "SharedChain"]


class SharedChain:
    """A built entry-gateway + accelerators + exit-gateway construct."""

    def __init__(
        self,
        entry: EntryGateway,
        exit_gw: ExitGateway,
        tiles: list[AcceleratorTile],
        bindings: list[StreamBinding],
        channels: list[HardwareFifoChannel] | None = None,
    ) -> None:
        self.entry = entry
        self.exit = exit_gw
        self.tiles = tiles
        self.bindings = {b.name: b for b in bindings}
        self.channels = channels or []
        #: (failed tile, spare tile) name pairs, in remap order
        self.remaps: list[tuple[str, str]] = []

    def binding(self, name: str) -> StreamBinding:
        return self.bindings[name]

    def remap_tile(self, failed: AcceleratorTile, spare: AcceleratorTile) -> None:
        """Substitute a dormant spare into a dead tile's chain position.

        The kernel object (and any shadow contexts) survive the hardware
        failure — only the tile died — so the spare adopts them together
        with the dead tile's channel endpoints.  The ``tiles`` list is
        shared by reference with the entry-gateway, so the in-place swap
        is immediately visible to the admission/flush logic.  Only legal
        while the chain is quiescent; the caller (the reconfiguration
        manager) guarantees that.
        """
        if not failed.dead:
            raise SimulationError(
                f"{failed.name}: refusing to remap a live tile"
            )
        idx = self.tiles.index(failed)
        spare.fault_injector = failed.fault_injector
        spare.on_permanent_failure = failed.on_permanent_failure
        spare.adopt(
            failed.kernel,
            self.channels[idx],
            self.channels[idx + 1],
            shadow_bank=failed._shadow_bank,
        )
        self.tiles[idx] = spare
        self.remaps.append((failed.name, spare.name))
        if self.entry.tracer:
            self.entry.tracer.log(self.entry.sim.now, failed.name,
                                  "tile_remapped", spare=spare.name,
                                  position=idx)

    def stream_metrics(self) -> dict:
        """Per-stream :class:`~repro.sim.metrics.StreamMetrics`, from the
        bindings' counters, in round-robin order."""
        from ..sim.metrics import stream_metrics

        return {name: stream_metrics(b) for name, b in self.bindings.items()}

    def utilization_breakdown(self, horizon: int):
        """Entry-gateway :class:`~repro.sim.metrics.GatewayUtilization`."""
        from ..sim.metrics import gateway_utilization

        return gateway_utilization(self.entry, horizon)

    def utilization(self, horizon: int) -> dict[str, float]:
        """Measured gateway utilization over ``horizon`` cycles.

        The measured counterpart of
        :func:`repro.core.utilization.analyze_utilization`: fractions of
        time the entry-gateway spent copying samples, reconfiguring the
        accelerators, and polling for an admissible stream.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        copy = self.entry.copy_cycles / horizon
        reconf = self.entry.reconfig_cycles / horizon
        wait = self.entry.wait_cycles / horizon
        samples = sum(b.samples_in for b in self.bindings.values())
        return {
            "copy": copy,
            "reconfig": reconf,
            "wait": wait,
            "data_transfer": samples / horizon,  # 1 cycle/sample of movement
            "samples": samples,
            "blocks": self.entry.blocks_admitted,
        }


class MPSoC:
    """Top-level container for one simulated multiprocessor system."""

    def __init__(
        self,
        n_stations: int,
        hop_latency: int = 1,
        config_bus_word_time: int = 1,
        trace: bool = False,
        trace_kinds: "set[str] | frozenset[str] | None" = None,
    ) -> None:
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace, kinds=trace_kinds)
        self.ring = DualRing(self.sim, n_stations, hop_latency=hop_latency,
                             tracer=self.tracer if trace else None)
        self.config_bus = ConfigBus(self.sim, word_time=config_bus_word_time,
                                    tracer=self.tracer if trace else None)
        self._next_station = 0
        self.processors: list[ProcessorTile] = []
        #: dormant cold-spare accelerator tiles (failover pool)
        self.spare_tiles: list[AcceleratorTile] = []

    # -- stations -----------------------------------------------------------
    def claim_station(self) -> int:
        """Allocate the next free ring station index."""
        if self._next_station >= self.ring.n:
            raise SimulationError(
                f"ring has only {self.ring.n} stations; build a bigger MPSoC"
            )
        idx = self._next_station
        self._next_station += 1
        return idx

    # -- tiles ------------------------------------------------------------
    def add_processor(self, name: str, quantum: int = 64) -> ProcessorTile:
        tile = ProcessorTile(
            self.sim, name, self.claim_station(), self.ring,
            quantum=quantum, tracer=self.tracer if self.tracer.enabled else None,
        )
        self.processors.append(tile)
        return tile

    def add_spare_tile(self, name: str) -> AcceleratorTile:
        """Provision a dormant cold-spare accelerator tile.

        Spares sit powered-down off the chain (no kernel, no channels, no
        process) until :meth:`take_spare` hands one to the reconfiguration
        manager for a failover remap.
        """
        tile = AcceleratorTile(
            self.sim, name,
            tracer=self.tracer if self.tracer.enabled else None,
        )
        self.spare_tiles.append(tile)
        return tile

    def take_spare(self) -> AcceleratorTile | None:
        """Hand out the next dormant spare, or None when the pool is dry."""
        for tile in self.spare_tiles:
            if tile.dormant:
                return tile
        return None

    def software_fifo(self, src: ProcessorTile | int, dst: ProcessorTile | int,
                      capacity: int, name: str) -> CFifo:
        s = src.station if isinstance(src, ProcessorTile) else int(src)
        d = dst.station if isinstance(dst, ProcessorTile) else int(dst)
        return CFifo(self.sim, self.ring, s, d, capacity, name=name,
                     tracer=self.tracer if self.tracer.enabled else None)

    # -- the paper's construct ------------------------------------------------
    def shared_chain(
        self,
        name: str,
        kernels: Sequence[StreamKernel],
        stream_configs: Sequence[dict[str, Any]],
        entry_copy: int = 15,
        exit_copy: int = 1,
        ni_capacity: int = 2,
        poll_interval: int = 1,
        context_mode: str = "software",
        shadow_switch_cycles: int = 4,
        watchdog: Any = None,
        admission: Any = None,
        fault_injector: Any = None,
    ) -> SharedChain:
        """Build a gateway pair sharing a chain of accelerator kernels.

        Each entry of ``stream_configs`` describes one multiplexed stream::

            {
                "name": str,
                "eta": int,                  # block size (input samples)
                "in_fifo": CFifo,            # producer -> entry gateway
                "out_fifo": CFifo,           # exit gateway -> consumer
                "states": [dict, ...],      # per-kernel initial contexts
                "reconfigure_cycles": int | None,   # explicit R_s
            }

        The chain's aggregate output ratio (e.g. 1/8 for one decimator)
        is computed from the kernels.

        ``watchdog`` (a :class:`~repro.sim.faults.WatchdogConfig`) arms the
        entry gateway's recovery path; ``admission`` (an
        :class:`~repro.sim.faults.AdmissionController`) enables graceful
        degradation; ``fault_injector`` (a
        :class:`~repro.sim.faults.FaultInjector`) always reaches the entry
        gateway and is wired into each other component only where its plan
        can fire (:meth:`~repro.sim.faults.FaultInjector.can_fire`): the
        ring for ring delays/drops, every stream C-FIFO for pointer loss or
        a ring fault, the tiles for accelerator stalls and permanent tile
        failures.  An unwired hook could never fire, so this is exact, and
        it keeps e.g. a join/leave-only plan's ring and C-FIFOs on their
        compiled fast path.  All three default to ``None``, leaving the
        fault-free construct cycle-for-cycle unchanged.
        """
        tracer = self.tracer if self.tracer.enabled else None
        kernels = list(kernels)
        if not kernels:
            raise SimulationError("shared_chain needs at least one kernel")

        entry_station = self.claim_station()
        acc_stations = [self.claim_station() for _ in kernels]
        exit_station = self.claim_station()

        # NI channels: entry -> acc0 -> ... -> accN-1 -> exit
        stations = [entry_station, *acc_stations, exit_station]
        channels = [
            HardwareFifoChannel(
                self.sim, self.ring, a, b, capacity=ni_capacity,
                name=f"{name}.ni{i}", tracer=tracer,
            )
            for i, (a, b) in enumerate(zip(stations, stations[1:]))
        ]
        tiles = [
            AcceleratorTile(self.sim, f"{name}.acc{i}", k, channels[i], channels[i + 1],
                            tracer=tracer)
            for i, k in enumerate(kernels)
        ]

        ratio = Fraction(1)
        for k in kernels:
            ratio *= k.output_ratio

        bindings = []
        for cfg in stream_configs:
            bindings.append(
                StreamBinding(
                    name=cfg["name"],
                    eta=int(cfg["eta"]),
                    in_fifo=cfg["in_fifo"],
                    out_fifo=cfg["out_fifo"],
                    states=list(cfg["states"]),
                    output_ratio=ratio,
                    reconfigure_cycles=cfg.get("reconfigure_cycles"),
                )
            )

        if fault_injector is not None:
            if fault_injector.can_fire("ring"):
                self.ring.fault_injector = fault_injector
            if fault_injector.can_fire("tile"):
                for tile in tiles:
                    tile.fault_injector = fault_injector
            if fault_injector.can_fire("cfifo"):
                for binding in bindings:
                    binding.in_fifo.fault_injector = fault_injector
                    binding.out_fifo.fault_injector = fault_injector

        idle = Signal(self.sim, initial=1, name=f"{name}.idle")
        exit_gw = ExitGateway(self.sim, f"{name}.exit", channels[-1], idle,
                              exit_copy=exit_copy, tracer=tracer)
        entry = EntryGateway(
            self.sim, f"{name}.entry", tiles, channels[0], exit_gw, bindings,
            self.config_bus, entry_copy=entry_copy, poll_interval=poll_interval,
            context_mode=context_mode, shadow_switch_cycles=shadow_switch_cycles,
            tracer=tracer, watchdog=watchdog, admission=admission,
            fault_injector=fault_injector, channels=channels,
        )
        return SharedChain(entry, exit_gw, tiles, bindings, channels)

    # -- execution ------------------------------------------------------------
    def run(self, until: int) -> None:
        """Advance the whole system to the given cycle."""
        self.sim.run(until=until)
