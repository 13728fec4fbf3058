"""The low-cost dual-ring interconnect ([11], [14]; paper Section IV).

Two unidirectional rings connect all tiles: the **data ring** carries
payload flits in one direction and the **credit ring** carries flow-control
credits in the opposite direction.  Key properties modelled:

* **posted writes** — "a write completes for a producer when the
  interconnect accepts, it does not wait until the write actually arrives"
  (Section IV-A): :meth:`DualRing.post` returns an acceptance event plus a
  separate delivery event,
* **lossless, guaranteed acceptance** — destination tiles always accept;
  there is no network-level flow control for memory writes (end-to-end
  credits, where needed, are the NI's job — :mod:`repro.arch.ni`),
* **guaranteed throughput** — each directed link forwards at most one flit
  per cycle, flits already on the ring have priority over new injections
  (modelled with per-link FIFO grant queues), so a flit's latency is bounded
  by hops × hop_latency plus bounded blocking.

Fast path (compiled transit; DESIGN.md §7)
------------------------------------------

Because flits already on the ring have priority and each link forwards one
flit per cycle, an *uncongested* transit is fully predictable at injection
time: a flit injected at cycle ``t`` over ``hops`` links is accepted at
``t + hop_latency`` and delivered at ``t + hops * hop_latency``, occupying
link ``k``'s injection slot during ``[t + k*hop_latency, t + k*hop_latency
+ 1)``.  Every flit for which the fault injector arms no delay or drop
skips the per-hop generator entirely: the transit is *compiled* into a
single self-re-arming calendar entry (:class:`_FastFlit`, an
:class:`~repro.sim.kernel.Event` subclass that is its own state machine)
which performs the per-link grant acquire/release protocol at the
generator's exact calendar positions but carries no process object, no
generator frames and zero per-hop allocations — acceptance and delivery
are the only payload callbacks.

Keeping the grant protocol real (rather than replacing it with a private
reservation table) is what makes the optimisation exact under congestion:
a compiled flit holds each link's grant during its occupancy slot, so
later injections queue behind it in the link's FIFO — and whenever a
grant is held, at injection or mid-route, the compiled flit parks in that
FIFO at the position the generator would have, losing only its
closed-form schedule (counted in ``flits_demoted``), never its ordering.
The per-hop generator path serves only flits with an armed ring delay or
drop, and is the reference the compiled path is checked against.
:meth:`DualRing.post_chain` extends the fusion across a back-to-back burst
(C-FIFO data+wptr): the head flit commits compiled and each later flit is
relayed at its predecessor's acceptance instant, so a chain never
front-runs competing injections.  ``REPRO_NO_FASTPATH=1`` disables the
fast path wholesale; ``tests/property/test_ring_fastpath_differential.py``
holds the two modes to equivalent observable traces and
``benchmarks/bench_ring_fastpath.py`` records the speedup.
"""

from __future__ import annotations

import os
from heapq import heappush as _heappush
from typing import Any, Callable, Sequence

from ..sim import Event, Signal, SimulationError, Simulator, Tracer

__all__ = ["DualRing", "RingError"]


class RingError(SimulationError):
    """Raised on bad station indices or malformed sends."""


class _Link:
    """One directed ring segment: forwards at most one flit per cycle."""

    __slots__ = ("sim", "grant")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.grant = Signal(sim, initial=1)  # the link is free

    def free(self) -> bool:
        """Is the injection slot grantable right now (no holder, no queue)?"""
        grant = self.grant
        return grant.count >= 1 and not grant._waiters

    def traverse(self, hop_latency: int):
        """Generator: occupy the link for one injection slot, then hop."""
        yield self.grant.acquire(1)
        # the flit occupies the link's injection slot for one cycle,
        # then needs hop_latency cycles to reach the next station
        yield self.sim.timeout(1)
        self.grant.release(1)
        if hop_latency > 1:
            yield self.sim.timeout(hop_latency - 1)


class _FastFlit(Event):
    """One compiled (fused) transit: the generator path without the process.

    The transit's timing is computed in closed form at injection; the only
    *payload* callbacks are the acceptance and the delivery.  Everything
    else is the flit object itself acting as its own calendar entry: it is
    an :class:`~repro.sim.kernel.Event` whose single callback re-arms and
    re-appends it step by step, replaying the generator's per-hop protocol
    — grant acquire, one-cycle occupancy, release, tail sleep — with zero
    per-hop allocations and each side effect at the *exact
    within-cycle dispatch position* the generator would have given it.
    Position fidelity (not just cycle fidelity) is load-bearing: same-cycle
    positions decide link-grant FIFO order and the order in which parked
    producers wake and inject their next flits, so approximating them
    (e.g. one end-of-bucket callback per instant) lets fast and slow runs
    diverge observably a few cycles later.  The differential property in
    ``tests/property/test_ring_fastpath_differential.py`` holds the two
    paths to equivalent traces.

    The grant traffic is real: a compiled flit takes each link's grant for
    its occupancy slot, so competing injections queue behind it FIFO.  If a
    grant does *not* come back immediately (the link is held at injection
    or further along the route), the flit simply waits in the queue — at
    the position the generator would have occupied — and continues
    compiled once granted.  Only its closed-form schedule is lost; the
    event is counted once per flit in ``DualRing.flits_demoted``.
    """

    __slots__ = ("ring", "direction", "route", "_route_len", "src", "dst",
                 "payload", "on_delivery", "accepted", "delivered", "hop",
                 "demoted", "_state", "_cb")

    # _state values: which protocol step fires when this entry dispatches
    _START = 0       # process-init position: acquire the first hop's grant
    _GRANTED = 1     # holding the grant: start the 1-cycle occupancy
    _OCC_END = 2     # occupancy over: release, then hop bookkeeping
    _HOP_DONE = 3    # trailing (hop_latency - 1)-cycle sleep expired

    def __init__(self, ring):
        # flat Event init (see Timeout): this object is its own calendar
        # entry, re-armed once per protocol step for the whole transit.
        # ``_cb`` → bound ``_step`` → self is a reference cycle, which is
        # why delivered flits are recycled through ``DualRing._flit_pool``
        # instead of being left to the cyclic collector.
        self.sim = ring.sim
        self._cb = [self._step]
        self.callbacks = self._cb
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.ring = ring

    # -- the compiled state machine ---------------------------------------
    # Each step appends the next calendar entry (this same object) exactly
    # where the generator would have created its next event, so bucket
    # append order — and therefore dispatch order — is identical to the
    # slow path's.
    def launch(self, direction, route, src, dst, payload,
               on_delivery, accepted, delivered) -> None:
        """Arm one transit and take the process-init calendar position.

        Fresh or recycled, the object re-enters the calendar here; the
        trailing ``_schedule(self, 0)`` mirrors ``sim.process(flit())``'s
        init entry.  ``callbacks`` needs no reset — ``_step`` re-armed it
        as its first action on the previous dispatch.
        """
        self.direction = direction
        self.route = route
        self._route_len = len(route)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.on_delivery = on_delivery
        self.accepted = accepted
        self.delivered = delivered
        self.hop = 0
        self.demoted = False
        self._state = self._START
        self._processed = False
        self.sim._schedule(self, 0)

    def _step(self, _ev: Event) -> None:
        """Dispatch one protocol step; the dispatch loop consumed our
        callback list, so re-arm it before anything else.

        The hop-done and next-hop-acquire logic is inlined (rather than
        delegated to :meth:`_acquire_hop`) because this method runs twice
        per hop for every fused flit in a run — the call overhead alone
        is measurable on the macro bench.
        """
        self.callbacks = self._cb
        state = self._state
        sim = self.sim
        if state == self._GRANTED:
            # holding the grant: the 1-cycle injection-slot occupancy
            self._state = self._OCC_END
            when = sim.now + 1
            buckets = sim._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [self]
                _heappush(sim._times, when)
            else:
                bucket.append(self)
            return
        if state == self._OCC_END:
            # occupancy over: release the grant (waking any queued flit)
            grant = self.route[self.hop].grant
            if grant._waiters:
                grant.release(1)
            else:
                grant._count += 1
            h = self.ring.hop_latency
            if h != 1:
                # mirrors the trailing ``timeout(hop_latency - 1)`` sleep
                self._state = self._HOP_DONE
                when = sim.now + h - 1
                buckets = sim._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = [self]
                    _heappush(sim._times, when)
                else:
                    bucket.append(self)
                return
            # h == 1: fall through to hop-done
        elif state == self._START:
            self._acquire_hop()
            return
        # hop completed (OCC_END with h == 1, or the _HOP_DONE sleep
        # expired) — at the generator's resume position
        hop = self.hop
        if hop == 0 and self.accepted is not None:
            self.accepted.succeed()
        hop += 1
        self.hop = hop
        if hop == self._route_len:
            self._deliver()
            return
        # inlined _acquire_hop (see its docstring for the position rules)
        grant = self.route[hop].grant
        if not grant._waiters and grant._count >= 1:
            grant._count -= 1
            self._state = self._GRANTED
            sim._active.append(self)
            return
        ev = grant.acquire(1)
        if not ev.triggered and not self.demoted:
            self.demoted = True
            self.ring.flits_demoted[self.direction] += 1
        ev.add_callback(self._parked_grant)

    def _acquire_hop(self) -> None:
        """The hop's grant acquire, at the generator's exact call position.

        The uncontended case takes the grant inline (the count drops at
        the call position, as ``Signal.acquire`` would) and appends this
        object to the live bucket — the same slot the granted acquire
        event would have occupied, minus the event allocation.  A
        contended grant goes through the real ``acquire`` so this flit
        queues in the link's FIFO and fires on release — either way the
        occupancy starts at the slow path's resume position.
        """
        grant = self.route[self.hop].grant
        if not grant._waiters and grant._count >= 1:
            grant._count -= 1
            self._state = self._GRANTED
            self.sim._active.append(self)
            return
        ev = grant.acquire(1)
        if not ev.triggered and not self.demoted:
            # mid-route congestion: the closed-form schedule is lost, but
            # the queue position is the generator's, so ordering and the
            # eventual timing are unchanged
            self.demoted = True
            self.ring.flits_demoted[self.direction] += 1
        ev.add_callback(self._parked_grant)

    def _parked_grant(self, _ev: Event) -> None:
        """A queued grant came back: occupancy starts at the wake position."""
        self._state = self._OCC_END
        sim = self.sim
        when = sim.now + 1
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [self]
            _heappush(sim._times, when)
        else:
            bucket.append(self)

    def _deliver(self) -> None:
        ring = self.ring
        if ring.tracer:
            ring.tracer.log(ring.sim.now, f"ring.{self.direction}", "deliver",
                            src=self.src, dst=self.dst)
        if self.on_delivery is not None:
            self.on_delivery(self.payload)
        if self.delivered is not None:
            self.delivered.succeed(self.payload)
        # transit complete: recycle.  Nothing external holds this object
        # (callers only ever see the accepted/delivered events), and the
        # dispatch loop writes nothing after our callback returns.
        ring._flit_pool.append(self)


class DualRing:
    """Data + credit rings over ``n_stations`` tiles.

    Stations are integers ``0 .. n-1``; the data ring runs in increasing
    direction, the credit ring in decreasing direction (credits travel
    "in the opposite direction as the data" [11]).
    """

    DATA = "data"
    CREDIT = "credit"

    def __init__(
        self,
        sim: Simulator,
        n_stations: int,
        hop_latency: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if n_stations < 2:
            raise RingError("a ring needs at least two stations")
        if hop_latency < 1:
            raise RingError("hop latency must be at least one cycle")
        self.sim = sim
        self.n = int(n_stations)
        self.hop_latency = int(hop_latency)
        self.tracer = tracer if tracer and tracer.keeps("deliver") else None
        self._links = {
            self.DATA: [_Link(sim) for _ in range(self.n)],
            self.CREDIT: [_Link(sim) for _ in range(self.n)],
        }
        self.flits_sent = {self.DATA: 0, self.CREDIT: 0}
        self.flits_dropped = {self.DATA: 0, self.CREDIT: 0}
        #: flits whose transit was compiled into closed-form callbacks
        self.flits_fast = {self.DATA: 0, self.CREDIT: 0}
        #: flits that went through the per-hop generator path
        self.flits_slow = {self.DATA: 0, self.CREDIT: 0}
        #: compiled flits that waited on a held link grant, at injection or
        #: mid-route, and lost their closed-form schedule (still counted in
        #: ``flits_fast``: they queue FIFO like a generator flit)
        self.flits_demoted = {self.DATA: 0, self.CREDIT: 0}
        #: master switch for the fused fast path (kill: REPRO_NO_FASTPATH=1)
        self.fastpath = os.environ.get("REPRO_NO_FASTPATH") != "1"
        #: optional :class:`repro.sim.faults.FaultInjector` link-fault hook
        self.fault_injector = None
        #: components (C-FIFOs, NI channels) that registered for per-source
        #: fast-path take-rate reporting — see :func:`repro.sim.metrics`
        self.clients: list[Any] = []
        self._route_cache: dict[tuple[int, str, int], tuple[_Link, ...]] = {}
        #: recycled compiled-transit records (each is a reference cycle,
        #: so pooling also keeps them away from the cyclic GC)
        self._flit_pool: list[_FastFlit] = []
        self._hops_cache: dict[tuple[int, int, str], int] = {}

    # -- helpers ----------------------------------------------------------
    def _check_station(self, station: int) -> None:
        if not 0 <= station < self.n:
            raise RingError(f"station {station} outside ring of {self.n}")

    def hops(self, src: int, dst: int, ring: str) -> int:
        """Number of links a flit crosses from src to dst on the given ring."""
        self._check_station(src)
        self._check_station(dst)
        if src == dst:
            raise RingError("src and dst stations must differ")
        if ring == self.DATA:
            return (dst - src) % self.n
        if ring == self.CREDIT:
            return (src - dst) % self.n
        raise RingError(f"unknown ring {ring!r}")

    def _route(self, src: int, ring: str, hops: int) -> tuple[_Link, ...]:
        # routes are static, post() is hot: memoise the link tuples
        key = (src, ring, hops)
        route = self._route_cache.get(key)
        if route is None:
            step = 1 if ring == self.DATA else -1
            links = self._links[ring]
            out = []
            cur = src
            for _ in range(hops):
                idx = cur if step == 1 else (cur - 1) % self.n
                out.append(links[idx])
                cur = (cur + step) % self.n
            route = self._route_cache[key] = tuple(out)
        return route

    # -- sending ------------------------------------------------------------
    def post(
        self,
        src: int,
        dst: int,
        payload: Any = None,
        ring: str = DATA,
        on_delivery: Callable[[Any], None] | None = None,
        events: bool = True,
    ) -> tuple[Event | None, Event | None]:
        """Posted write: returns ``(accepted, delivered)`` events.

        ``accepted`` fires when the first link grants injection (the
        producer's write "completes"); ``delivered`` fires when the flit
        reaches ``dst`` — ``on_delivery(payload)`` runs at that instant.
        Fire-and-forget callers (pointer updates, credit returns) that act
        purely through ``on_delivery`` pass ``events=False`` to skip the
        event allocations; the return value is then ``(None, None)``.

        .. warning:: a flit dropped by the fault injector never fires its
           ``delivered`` event — the loss is silent at ring level, exactly
           like the hardware.  Production code must therefore never await
           ``delivered`` without an external watchdog budget; the in-tree
           consumers (:mod:`repro.arch.cfifo`, :mod:`repro.arch.ni`)
           discard it and act through ``on_delivery`` only, with the
           entry-gateway watchdog owning loss recovery.
        """
        # full validation before any counter mutation: a RingError here must
        # not leave flits_sent counting a flit that was never injected
        key = (src, dst, ring)
        hops = self._hops_cache.get(key)
        if hops is None:
            hops = self._hops_cache[key] = self.hops(src, dst, ring)
        if on_delivery is not None and not callable(on_delivery):
            raise RingError(
                f"on_delivery must be callable, got {type(on_delivery).__name__}"
            )
        if events:
            accepted = self.sim.event()
            delivered = self.sim.event()
        else:
            accepted = delivered = None
        self._post_into(src, dst, hops, ring, payload, on_delivery,
                        accepted, delivered)
        return accepted, delivered

    def _post_into(self, src, dst, hops, ring, payload, on_delivery,
                   accepted, delivered) -> bool:
        """Inject one validated flit into pre-created events.

        Returns True when the flit was compiled, which it is unless the
        fast path is off or the fault injector arms a delay or drop for it.
        Shared by :meth:`post` and the chain relays so a chain flit posts
        through exactly the code path — and the exact fault-injector query
        position — the unfused caller would have used.
        """
        route = self._route(src, ring, hops)
        self.flits_sent[ring] += 1
        injector = self.fault_injector
        if injector is not None:
            extra_delay, dropped = injector.ring_fault(ring, src, dst)
        else:
            extra_delay, dropped = 0, False

        if self.fastpath and not extra_delay and not dropped:
            self._post_fast(route, src, dst, ring, payload, on_delivery,
                            accepted, delivered)
            return True
        self._post_slow(route, src, dst, ring, payload, on_delivery,
                        accepted, delivered, extra_delay, dropped)
        return False

    def post_chain(
        self,
        src: int,
        dst: int,
        flits: Sequence[tuple[int, Any, Callable[[Any], None] | None]],
        ring: str = DATA,
        client: Any | None = None,
    ) -> list[tuple[Event, Event | None]] | None:
        """Precompile a burst of back-to-back same-route posted writes.

        ``flits`` is a sequence of ``(offset, payload, on_delivery)``
        triples: flit *i*'s declared ``offset`` is the cycle (relative to
        now) at which the caller's unfused code path would have posted it —
        strictly increasing, starting at 0.  The head flit is committed
        compiled now and each later flit is relayed at the previous flit's
        acceptance instant (exactly when the unfused caller, parked on that
        acceptance, would have posted it).  A chain therefore never
        front-runs competing traffic: under contention each flit queues on
        the link grants it meets, flit by flit, exactly like the unfused
        path.

        The per-flit ``(accepted, delivered)`` pairs are returned
        immediately, so the caller can park on any acceptance.  The
        ``delivered`` slots are ``None``: chain callers are posted-write
        producers that act through their ``on_delivery`` hooks (see the
        warning in :meth:`post`), so the events would never be awaited.
        ``client``, when given, receives per-flit ``flits_fast`` /
        ``flits_slow`` attribution as each flit actually posts.

        A chain is never started while a fault injector is attached or the
        fast path is off: ``None`` is returned with **no state mutated** and
        the caller issues its posts individually.  The head flit's injector
        query would be fine, but the caller's unfused path may interleave
        its own injector hooks (e.g. C-FIFO pointer loss) between the
        posts, which a chain cannot reproduce.
        """
        if not self.fastpath or self.fault_injector is not None:
            return None
        key = (src, dst, ring)
        hops = self._hops_cache.get(key)
        if hops is None:
            hops = self._hops_cache[key] = self.hops(src, dst, ring)
        last = -1
        for off, _payload, cb in flits:
            if off <= last:
                raise RingError("chain offsets must be strictly increasing")
            if last < 0 and off != 0:
                raise RingError("chain must start at offset 0")
            last = off
            if cb is not None and not callable(cb):
                raise RingError(
                    f"on_delivery must be callable, got {type(cb).__name__}"
                )
        route = self._route(src, ring, hops)
        sim = self.sim
        out = [(Event(sim), None) for _ in flits]
        # head flit: compiled commit at the current instant
        self.flits_sent[ring] += 1
        self._post_fast(route, src, dst, ring, flits[0][1], flits[0][2],
                        out[0][0], out[0][1])
        if client is not None:
            client.flits_fast += 1
        for i in range(1, len(flits)):
            _off, payload, cb = flits[i]
            accepted, delivered = out[i]

            def relay(_ev, payload=payload, cb=cb,
                      accepted=accepted, delivered=delivered):
                fused = self._post_into(src, dst, hops, ring, payload, cb,
                                        accepted, delivered)
                if client is not None:
                    if fused:
                        client.flits_fast += 1
                    else:
                        client.flits_slow += 1

            # ride the previous flit's acceptance: the relay runs at the
            # exact instant (and within-cycle position) the unfused caller
            # would resume and post this flit
            out[i - 1][0].add_callback(relay)
        return out

    # -- internal posting paths ------------------------------------------
    def _post_fast(self, route, src, dst, ring, payload, on_delivery,
                   accepted, delivered):
        """Compiled transit: closed-form acceptance at ``now + hop_latency``
        and delivery at ``now + hops * hop_latency``, carried by a pooled
        :class:`_FastFlit` record (no process, no generator)."""
        pool = self._flit_pool
        rec = pool.pop() if pool else _FastFlit(self)
        self.flits_fast[ring] += 1
        rec.launch(ring, route, src, dst, payload, on_delivery,
                   accepted, delivered)

    def _post_slow(self, route, src, dst, ring, payload, on_delivery,
                   accepted, delivered, extra_delay, dropped):
        """Per-hop generator transit: armed delays and drops, and the
        reference path under ``REPRO_NO_FASTPATH=1``."""
        self.flits_slow[ring] += 1

        def flit():
            first = True
            for link in route:
                yield from link.traverse(self.hop_latency)
                if first:
                    if accepted is not None:
                        accepted.succeed()
                    first = False
            if extra_delay:
                yield self.sim.timeout(extra_delay)
            if dropped:
                # the flit is lost in transit; the producer's posted
                # write already completed, so only delivery-side effects
                # vanish (`delivered` stays pending forever — see the
                # warning in :meth:`post`)
                self.flits_dropped[ring] += 1
                return
            if self.tracer:
                self.tracer.log(self.sim.now, f"ring.{ring}", "deliver",
                                src=src, dst=dst)
            if on_delivery is not None:
                on_delivery(payload)
            if delivered is not None:
                delivered.succeed(payload)

        self.sim.process(flit(), name=f"flit:{ring}:{src}->{dst}")

    # -- observability ----------------------------------------------------
    def fastpath_stats(self) -> dict[str, dict[str, Any]]:
        """Per-ring fused/slow flit counts and take rates."""
        out = {}
        for ring in (self.DATA, self.CREDIT):
            fast = self.flits_fast[ring]
            slow = self.flits_slow[ring]
            total = fast + slow
            out[ring] = {
                "fast": fast,
                "slow": slow,
                "demoted": self.flits_demoted[ring],
                "take_rate": (fast / total) if total else 0.0,
            }
        return out
