"""Accelerator tiles (paper Section IV-B).

An accelerator tile couples a coarsely-programmable stream kernel to the
ring through its network interface: it consumes the incoming hardware-FIFO
stream, fires the kernel (``ρ_A`` cycles per sample) and pushes results into
the outgoing stream, stalling automatically when it "runs out of data or
space" — the stalls fall out of the credit-based channels.

Context switches (state save/load) are *passive* from the tile's point of
view: the entry-gateway drives them over the configuration bus and only does
so while the pipeline is idle — the tile itself just exposes
``save_state``/``load_state``.  A tile swap while a word is mid-kernel would
corrupt data exactly as the paper warns; the gateway protocol prevents it,
and the tile asserts it.
"""

from __future__ import annotations

from typing import Any

from ..accel.base import StreamKernel
from ..sim import Interrupt, SimulationError, Simulator, Tracer
from .ni import HardwareFifoChannel

__all__ = ["AcceleratorTile"]


class AcceleratorTile:
    """A stream kernel mounted on the ring between two hardware FIFOs.

    A tile may be built *dormant* (``kernel=None``): a powered-down cold
    spare with no channels and no running process.  :meth:`adopt` brings it
    online in a failed tile's place — it inherits the kernel (the
    computation state survives; only the tile hardware died) and the failed
    tile's channel endpoints.  :meth:`fail_permanently` is the other
    direction: the tile dies for good, its process exits, and it never
    consumes input again.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        kernel: StreamKernel | None = None,
        input_channel: HardwareFifoChannel | None = None,
        output_channel: HardwareFifoChannel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.kernel = kernel
        self.input = input_channel
        self.output = output_channel
        self.tracer = tracer if tracer and tracer.keeps("adopt", "tile_failed") else None
        #: the per-sample ``fire`` records' own handle, held only if kept
        self._fire_tracer = tracer if tracer and tracer.keeps("fire") else None
        self.samples_in = 0
        self.samples_out = 0
        self.busy = False
        #: outputs computed but not yet pushed into the outgoing channel
        self.pending_out = 0
        #: permanently failed — the tile's process has exited for good
        self.dead = False
        #: optional :class:`repro.sim.faults.FaultInjector` stall hook
        self.fault_injector = None
        #: called with this tile when it fails permanently (failover hook)
        self.on_permanent_failure = None
        self._shadow_bank: dict[str, dict[str, Any]] = {}
        self._process = None
        if kernel is not None:
            if input_channel is None or output_channel is None:
                raise SimulationError(
                    f"{name}: an active tile needs both channel endpoints"
                )
            self._process = sim.process(self._run(), name=f"acc:{name}")

    @property
    def dormant(self) -> bool:
        """A cold spare: built without a kernel and not yet adopted."""
        return self.kernel is None and not self.dead

    def adopt(
        self,
        kernel: StreamKernel,
        input_channel: HardwareFifoChannel,
        output_channel: HardwareFifoChannel,
        shadow_bank: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        """Bring a dormant spare online in a failed tile's chain position."""
        if not self.dormant:
            raise SimulationError(
                f"{self.name}: only a dormant spare can adopt a chain position"
            )
        self.kernel = kernel
        self.input = input_channel
        self.output = output_channel
        if shadow_bank:
            self._shadow_bank = dict(shadow_bank)
        self._process = self.sim.process(self._run(), name=f"acc:{self.name}")
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, "adopt",
                            input=input_channel.name, output=output_channel.name)

    def fail_permanently(self) -> None:
        """Mark the tile dead; its process exits at the next firing check.

        The word being consumed when the failure strikes is lost — the
        watchdog/retransmission path replays the block once the chain is
        remapped onto a spare.
        """
        already_dead = self.dead
        self.dead = True
        self.busy = False
        self.pending_out = 0
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, "tile_failed")
        if self._process is not None and self._process.is_alive:
            # unblock a process parked in recv(); its loop exits on the
            # Interrupt instead of stealing one more word from the channel
            self._process.interrupt("tile-failure")
        if not already_dead and self.on_permanent_failure is not None:
            self.on_permanent_failure(self)

    def _run(self):
        try:
            while True:
                word = yield from self.input.recv()
                if self.dead:
                    return
                if (
                    self.fault_injector is not None
                    and self.fault_injector.tile_fails(self.name)
                ):
                    # the received word dies with the tile
                    self.fail_permanently()
                    return
                self.busy = True
                if self.kernel.rho:
                    yield self.sim.timeout(self.kernel.rho)
                if self.fault_injector is not None:
                    extra = self.fault_injector.accel_extra(self.name)
                    if extra:
                        yield self.sim.timeout(extra)
                outputs = self.kernel.process(word)
                self.samples_in += 1
                self.busy = False
                if self._fire_tracer:
                    self._fire_tracer.log(self.sim.now, self.name, "fire",
                                          produced=len(outputs))
                self.pending_out = len(outputs)
                for out in outputs:
                    yield from self.output.send(out)
                    self.samples_out += 1
                    self.pending_out -= 1
        except Interrupt:
            # fail_permanently() while parked: the tile dies where it stood
            return

    # -- context switching (driven by the entry-gateway) -------------------
    @property
    def idle(self) -> bool:
        """No word is mid-kernel and nothing waits in the input buffer."""
        return not self.busy and self.input.buffered == 0

    def save_state(self) -> dict[str, Any]:
        """Snapshot kernel state; only legal while the tile is idle."""
        if self.busy:
            raise SimulationError(
                f"{self.name}: state save while processing would corrupt data"
            )
        return self.kernel.get_state()

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore kernel state; only legal while the tile is idle."""
        if self.busy:
            raise SimulationError(
                f"{self.name}: state load while processing would corrupt data"
            )
        self.kernel.set_state(state)

    @property
    def state_words(self) -> int:
        """Context size in configuration-bus words."""
        return self.kernel.state_words

    # -- shadow contexts (the paper's future-work extension) ----------------
    #
    # Section VI-A: "we are working on techniques to improve the speed at
    # which state can be saved and restored".  Shadow contexts realise
    # that: the tile holds one complete register set per stream and a
    # context switch is a constant-time bank swap instead of a
    # word-by-word bus transfer.

    def install_shadow(self, stream: str, state: dict[str, Any]) -> None:
        """Preload a stream's context into the tile's shadow bank."""
        self._shadow_bank[stream] = state

    def activate_shadow(self, outgoing: str | None, incoming: str) -> None:
        """Bank-swap contexts: park the outgoing stream's state, load the
        incoming one.  Only legal while idle, like any context switch."""
        if self.busy:
            raise SimulationError(
                f"{self.name}: shadow switch while processing would corrupt data"
            )
        if incoming not in self._shadow_bank:
            raise SimulationError(
                f"{self.name}: no shadow context installed for {incoming!r}"
            )
        if outgoing is not None:
            self._shadow_bank[outgoing] = self.kernel.get_state()
        self.kernel.set_state(self._shadow_bank[incoming])

    def shadow_state(self, stream: str) -> dict[str, Any]:
        """Inspect a parked shadow context (tests/diagnostics)."""
        return self._shadow_bank[stream]
