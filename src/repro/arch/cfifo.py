"""C-FIFO software FIFOs (Gangwal et al. [12]; paper Section IV-A).

Software FIFO communication between processing tiles uses shared-memory
FIFOs with the C-FIFO synchronisation scheme: the producer owns the write
pointer and keeps a *local copy* of the read pointer; the consumer owns the
read pointer and a local copy of the write pointer.  Data and pointer
updates travel as posted writes over the data ring; because the ring
delivers flits between one (src, dst) pair in order, a pointer update never
overtakes the data it covers.

Timing model:

* ``put`` blocks while the producer's local space view is zero; it then
  writes the word and the write-pointer update into the consumer's memory
  (two posted flits; the producer continues after ring acceptance),
* ``get`` blocks while the consumer's local fill view is zero; it then reads
  the word from local memory (free) and posts the read-pointer update back,
  which replenishes the producer's space view on arrival.

This matches the dataflow abstraction used in the analysis: space is
released to the producer only after consumption, and availability reaches
the consumer only after the (ring-delayed) write-pointer update.

Fused put (DESIGN.md §7): once the producer's space grant fires — the
exact dispatch position where the unfused code would post the data flit —
and no fault injector is attached, :meth:`CFifo.put` offers the data +
write-pointer posted writes to the ring as one precompiled chain
(:meth:`~repro.arch.ring.DualRing.post_chain`).  The ring takes every such
chain unless its own injector is attached or the fast path is off; a held
link only makes the chain's flits queue for the grant, exactly as the
unfused posts would.  The producer then parks on a single event (the wptr
acceptance) instead of resuming once per flit, the data flit spawns no
transit generator, and the wptr flit is relayed at the data flit's
acceptance instant exactly as the unfused code would have posted it.
Timing is identical to the unfused path.  A FIFO is given an injector
only when the plan can fire pointer loss or a ring fault
(:meth:`~repro.sim.faults.FaultInjector.can_fire`), so a fault-free or
join/leave-only run fuses every put.  The eligibility
counters (:attr:`CFifo.fused_puts` / :attr:`CFifo.slow_puts`, per-flit
:attr:`CFifo.flits_fast` / :attr:`CFifo.flits_slow`) surface the take rate
through :mod:`repro.sim.metrics`.  The read-pointer update posted by
:meth:`CFifo.get` is a single flit, compiled by the ring itself unless a
ring fault is armed for it.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..sim import Signal, SimulationError, Simulator, Tracer
from ..sim.trace import Kind
from .ring import DualRing

__all__ = ["CFifo"]


class CFifo:
    """A software FIFO between two ring stations with C-FIFO synchronisation."""

    def __init__(
        self,
        sim: Simulator,
        ring: DualRing,
        producer_station: int,
        consumer_station: int,
        capacity: int,
        name: str = "cfifo",
        tracer: Tracer | None = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("C-FIFO needs capacity >= 1")
        self.sim = sim
        self.ring = ring
        self.producer = producer_station
        self.consumer = consumer_station
        self.capacity = int(capacity)
        self.name = name
        self.tracer = tracer if tracer and tracer.keeps(Kind.PUT, Kind.GET) else None
        # producer's local view of free space (read-pointer copy)
        self._space = Signal(sim, initial=capacity, name=f"{name}.space")
        # consumer's local view of available words (write-pointer copy)
        self._avail = Signal(sim, initial=0, name=f"{name}.avail")
        self._memory: deque[Any] = deque()  # consumer-side buffer contents
        # hot-path handles: put/get run once per word, so the bound methods
        # and the constant wptr chain entry are hoisted out of them
        self._append = self._memory.append
        self._wptr_entry = (ring.hop_latency, None, self._release_avail)
        self.words_put = 0
        self.words_got = 0
        #: puts whose data+wptr flits were fused into one precompiled chain
        self.fused_puts = 0
        #: puts that went through the per-flit path (injector attached or
        #: fast path off)
        self.slow_puts = 0
        #: this FIFO's flits that took the ring fast path / generator path
        self.flits_fast = 0
        self.flits_slow = 0
        ring.clients.append(self)
        #: maximum number of claimed slots observed (buffer high-water mark);
        #: claimed = capacity − producer space view, so it covers words both
        #: in flight on the ring and resident in the consumer's memory.
        self.high_water = 0
        #: optional :class:`repro.sim.faults.FaultInjector` pointer-loss hook
        self.fault_injector = None
        #: pointer updates lost to injected faults, repaid by :meth:`resync`
        self.lost_space = 0
        self.lost_avail = 0

    # -- internal helpers --------------------------------------------------
    def _release_avail(self, _payload: Any) -> None:
        self._avail.release(1)

    def _release_space(self, _payload: Any) -> None:
        self._space.release(1)

    def _counted_post(self, src: int, dst: int, payload: Any, on_delivery,
                      events: bool = True):
        """``ring.post`` plus this FIFO's own fast/slow flit attribution."""
        before = self.ring.flits_fast[DualRing.DATA]
        out = self.ring.post(src, dst, payload, ring=DualRing.DATA,
                             on_delivery=on_delivery, events=events)
        if self.ring.flits_fast[DualRing.DATA] > before:
            self.flits_fast += 1
        else:
            self.flits_slow += 1
        return out

    # -- producer ---------------------------------------------------------
    def put(self, word: Any):
        """Generator: claim space, post data + write-pointer update.

        Unless a fault injector is attached (here or on the ring) or the
        fast path is off, the two posted writes are fused into one
        precompiled chain and this generator parks on a single event (the
        wptr acceptance); timing and side effects are identical to the
        per-flit path below.  The fusion decision is made *at the space
        grant's dispatch position* — exactly where the unfused code posts
        the data flit — so injection order against competing traffic is
        unchanged.
        """
        yield self._space.acquire(1)
        claimed = self.capacity - self._space.count
        if claimed > self.high_water:
            self.high_water = claimed
        if self.fault_injector is None:
            chain = self.ring.post_chain(
                self.producer, self.consumer,
                ((0, word, self._append), self._wptr_entry),
                client=self,
            )
            if chain is not None:
                self.fused_puts += 1
                yield chain[1][0]  # wptr acceptance: the producer's resume
                self.words_put += 1
                if self.tracer:
                    self.tracer.log(self.sim.now, self.name, Kind.PUT, word=word)
                return
        self.slow_puts += 1
        # data word (posted write into the consumer's FIFO memory)
        accepted, _ = self._counted_post(
            self.producer, self.consumer, word, self._append,
        )
        yield accepted
        injector = self.fault_injector
        if injector is not None and injector.cfifo_ptr_loss(self.name, "write"):
            # the wptr flit is lost before injection: the consumer never
            # learns about this word until a resync repairs the view
            self.lost_avail += 1
        else:
            # write-pointer update; availability becomes visible on delivery
            accepted2, _ = self._counted_post(
                self.producer, self.consumer, None, self._release_avail,
            )
            yield accepted2
        self.words_put += 1
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.PUT, word=word)

    @property
    def producer_space(self) -> int:
        """Free space as currently visible to the producer."""
        return self._space.count

    # -- consumer ---------------------------------------------------------
    def get(self):
        """Generator: wait for a visible word, read it, post the rptr update."""
        yield self._avail.acquire(1)
        while not self._memory:
            if self.fault_injector is None:
                raise SimulationError(f"{self.name}: pointer/data ordering violated")
            # under fault injection a resync can make availability visible
            # slightly before a delayed data flit lands; spin until it does
            yield self.sim.timeout(1)
        word = self._memory.popleft()
        self.words_got += 1
        injector = self.fault_injector
        if injector is not None and injector.cfifo_ptr_loss(self.name, "read"):
            # the rptr flit is lost: the producer's space view leaks a slot
            # until a resync repairs it
            self.lost_space += 1
        else:
            # read-pointer update replenishes producer space on arrival
            self._counted_post(
                self.consumer, self.producer, None, self._release_space,
                events=False,
            )
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.GET, word=word)
        return word

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(ok, word)``.

        Behaves like :meth:`get` when a word is visible *and* resident;
        returns ``(False, None)`` otherwise.  The entry gateway's guarded
        (watchdog) path uses this so an interrupted fetch can never strand
        a half-consumed availability token.
        """
        if self._avail.count < 1 or not self._memory:
            return False, None
        if not self._avail.try_acquire(1):
            return False, None
        word = self._memory.popleft()
        self.words_got += 1
        injector = self.fault_injector
        if injector is not None and injector.cfifo_ptr_loss(self.name, "read"):
            self.lost_space += 1
        else:
            self._counted_post(
                self.consumer, self.producer, None, self._release_space,
                events=False,
            )
        if self.tracer:
            self.tracer.log(self.sim.now, self.name, Kind.GET, word=word)
        return True, word

    @property
    def consumer_available(self) -> int:
        """Words currently visible to the consumer."""
        return self._avail.count

    def resync(self) -> tuple[int, int]:
        """Repay pointer updates lost to injected faults.

        Models a recovery-time pointer resynchronisation (producer and
        consumer re-exchange their true pointers).  Returns
        ``(space_restored, avail_restored)``.
        """
        space, avail = self.lost_space, self.lost_avail
        if space:
            self._space.release(space)
        if avail:
            self._avail.release(avail)
        self.lost_space = 0
        self.lost_avail = 0
        return space, avail

    def level_debug(self) -> dict[str, int]:
        """Snapshot of the distributed state (for tests/diagnostics)."""
        return {
            "space": self._space.count,
            "avail": self._avail.count,
            "memory": len(self._memory),
            "put": self.words_put,
            "got": self.words_got,
            "high_water": self.high_water,
            "lost_space": self.lost_space,
            "lost_avail": self.lost_avail,
        }

    def fastpath_stats(self) -> dict[str, Any]:
        """Fast-path take rates for this FIFO's puts and flits."""
        puts = self.fused_puts + self.slow_puts
        flits = self.flits_fast + self.flits_slow
        return {
            "fused_puts": self.fused_puts,
            "slow_puts": self.slow_puts,
            "put_take_rate": (self.fused_puts / puts) if puts else 0.0,
            "flits_fast": self.flits_fast,
            "flits_slow": self.flits_slow,
            "flit_take_rate": (self.flits_fast / flits) if flits else 0.0,
        }
