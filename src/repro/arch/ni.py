"""Network interfaces with credit-based hardware flow control.

Accelerator tiles communicate through hardware FIFOs over the ring: the
producer-side NI holds a **credit counter** initialised to the consumer-side
buffer capacity; each data flit spends one credit, and each word the consumer
pops returns one credit over the credit ring (Section IV-A/B: "To support
hardware FIFO communication we use a credit based flow control mechanism …
implemented with a second ring for the communication of credits in the
opposite direction as the data").

The ``α1 = α2 = 2``-token NI buffers of the paper's CSDF model (Fig. 5) are
exactly the ``capacity`` of these channels.

Both the data flit posted by :meth:`HardwareFifoChannel.send` and the credit
flit returned by :meth:`HardwareFifoChannel.recv` are single posted writes
over routes bound when the channel is built, so they ride the ring's fused
fast path (DESIGN.md §7) unless a ring fault is armed for them — no per-hop
generator, no ``delivered`` event (the consumer acts on delivery through
its hook, and nothing awaits it), and the in-flight accounting
(:attr:`~HardwareFifoChannel.words_in_flight` /
:attr:`~HardwareFifoChannel.credits_in_flight`) the gateway's quiescence and
repair logic relies on stays exact because delivery side effects run at the
same cycle on either path.  Per-channel take rates are tracked in
:attr:`~HardwareFifoChannel.flits_fast` / :attr:`~HardwareFifoChannel
.flits_slow`.
"""

from __future__ import annotations

from typing import Any

from ..sim import Event, FifoQueue, Signal, SimulationError, Simulator, Tracer
from .ring import DualRing

__all__ = ["HardwareFifoChannel"]


class HardwareFifoChannel:
    """A credit-flow-controlled stream between two ring stations."""

    def __init__(
        self,
        sim: Simulator,
        ring: DualRing,
        src_station: int,
        dst_station: int,
        capacity: int = 2,
        name: str = "hwfifo",
        tracer: Tracer | None = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("hardware FIFO needs capacity >= 1")
        self.sim = sim
        self.ring = ring
        self.src = src_station
        self.dst = dst_station
        self.name = name
        self.capacity = int(capacity)
        self.tracer = tracer if tracer and tracer.keeps("send", "recv") else None
        self._credits = Signal(sim, initial=capacity, name=f"{name}.credits")
        self._buffer = FifoQueue(sim, capacity, name=f"{name}.buf")
        self.words_sent = 0
        self.words_received = 0
        #: data flits posted but not yet landed in the consumer buffer
        self.words_in_flight = 0
        #: credit-return flits posted but not yet landed at the producer
        self.credits_in_flight = 0
        #: this channel's flits that took the ring fast path / generator path
        self.flits_fast = 0
        self.flits_slow = 0
        # the endpoints never change: validate and bind both routes once
        self._data_route = ring.route(src_station, dst_station, DualRing.DATA)
        self._credit_route = ring.route(dst_station, src_station,
                                        DualRing.CREDIT)
        ring.clients.append(self)

    # -- producer side ------------------------------------------------------
    def send(self, word: Any):
        """Generator: block for a credit, then post the data flit.

        The producer resumes as soon as the ring accepts (posted write);
        the word lands in the consumer buffer when the flit is delivered.
        Credit accounting guarantees the buffer never overflows.
        """
        yield self._credits.acquire(1)
        self.words_in_flight += 1
        accepted = Event(self.sim)
        self._data_route.post(word, self._arrive, accepted, None, self)
        yield accepted
        self.words_sent += 1
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, "send", word=word)

    def _arrive(self, word: Any) -> None:
        self.words_in_flight -= 1
        if not self._buffer.try_put(word):
            raise SimulationError(
                f"{self.name}: buffer overflow despite credits — protocol bug"
            )

    def try_send_ready(self) -> bool:
        """Non-blocking check: is a credit available right now?"""
        return self._credits.count > 0

    # -- consumer side ---------------------------------------------------
    def recv(self):
        """Generator: pop the next word, then return a credit to the producer."""
        word = yield self._buffer.get()
        self.words_received += 1
        self._return_credit()
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, "recv", word=word)
        return word

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking receive: ``(ok, word)``; returns the credit on success.

        Used by the exit gateway while draining an aborted block — stale
        words must be consumed (and their credits returned) without blocking.
        """
        ok, word = self._buffer.try_get()
        if not ok:
            return False, None
        self.words_received += 1
        self._return_credit()
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, "recv", word=word)
        return True, word

    def _return_credit(self) -> None:
        self.credits_in_flight += 1
        self._credit_route.post(None, self._credit_lands, None, None, self)

    def _credit_lands(self, _payload: Any) -> None:
        self.credits_in_flight -= 1
        self._credits.release(1)

    @property
    def credits(self) -> int:
        """Send credits currently held by the producer side."""
        return self._credits.count

    def repair(self, data_drops: int = 0, credit_drops: int = 0) -> int:
        """Restore credits lost to faults or aborted transfers (recovery).

        ``data_drops`` / ``credit_drops`` are flits confirmed dropped by the
        fault injector; they are removed from the in-flight accounting, and
        whatever the credit-conservation invariant
        (``credits + buffered + in-flight = capacity``) still finds missing
        — e.g. a waiter withdrawn mid-handshake during a watchdog flush —
        is released back to the producer.  Returns the credits restored.
        Only sound while the channel is quiescent (no live transfer racing
        the accounting), i.e. from the entry gateway's recovery path.
        """
        self.words_in_flight -= min(data_drops, self.words_in_flight)
        self.credits_in_flight -= min(credit_drops, self.credits_in_flight)
        missing = (
            self.capacity
            - self._credits.count
            - self._buffer.level
            - self.words_in_flight
            - self.credits_in_flight
        )
        if missing > 0:
            self._credits.release(missing)
            return missing
        return 0

    @property
    def buffered(self) -> int:
        """Words currently waiting in the consumer-side buffer."""
        return self._buffer.level

    def fastpath_stats(self) -> dict[str, Any]:
        """Fast-path take rate for this channel's data + credit flits."""
        flits = self.flits_fast + self.flits_slow
        return {
            "flits_fast": self.flits_fast,
            "flits_slow": self.flits_slow,
            "flit_take_rate": (self.flits_fast / flits) if flits else 0.0,
        }
