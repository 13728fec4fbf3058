"""The accelerator configuration bus (paper Sections IV-B/IV-C).

"Each accelerator is connected to a bus to load and save its state and
configuration.  This is used to provide context switches when different data
streams are multiplexed."  The bus is a single shared resource: transfers
serialise, each moving one word per ``word_time`` cycles.  The entry-gateway
drives it during reconfiguration; the total save+restore time corresponds to
the paper's ``R_s`` (4100 cycles in the prototype, dominated by the software
save/restore loop on the MicroBlaze).
"""

from __future__ import annotations

from ..sim import Signal, SimulationError, Simulator, Tracer

__all__ = ["ConfigBus"]


class ConfigBus:
    """Serialised word-at-a-time state/configuration transport."""

    def __init__(
        self,
        sim: Simulator,
        word_time: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if word_time < 1:
            raise SimulationError("config bus word time must be >= 1 cycle")
        self.sim = sim
        self.word_time = int(word_time)
        self.tracer = tracer if tracer and tracer.keeps("transfer", "transfer_cycles") else None
        self._mutex = Signal(sim, initial=1, name="cfgbus")
        self.words_transferred = 0
        self.transactions = 0

    def transfer(self, words: int, label: str = ""):
        """Move ``words`` over the bus (blocking, serialised).

        Returns a generator to drive with ``yield from``.  The size is
        validated eagerly — a zero or negative word count is a caller bug
        (it would silently occupy the bus for nothing, or never run at
        all if the generator is dropped unstarted) and raises
        :class:`ValueError` at call time.
        """
        if not isinstance(words, int) or words <= 0:
            raise ValueError(
                f"config bus transfer needs a positive word count, got {words!r}"
            )
        return self._occupy(words * self.word_time, words, "transfer", label)

    def transfer_cycles(self, cycles: int, label: str = ""):
        """Occupy the bus for a fixed cycle count (``yield from`` the result).

        Used when the caller knows the end-to-end reconfiguration time
        (the paper's measured ``R_s = 4100``) rather than a word count.
        Zero/negative durations raise :class:`ValueError` eagerly, like
        :meth:`transfer`.
        """
        if not isinstance(cycles, int) or cycles <= 0:
            raise ValueError(
                f"config bus occupancy needs a positive cycle count, got {cycles!r}"
            )
        return self._occupy(cycles, 0, "transfer_cycles", label)

    def _occupy(self, cycles: int, words: int, kind: str, label: str):
        yield self._mutex.acquire(1)
        try:
            yield self.sim.timeout(cycles)
            self.words_transferred += words
            self.transactions += 1
            if self.tracer:
                detail = {"words": words} if words else {"cycles": cycles}
                self.tracer.log(self.sim.now, "cfgbus", kind,
                                label=label, **detail)
        finally:
            self._mutex.release(1)
