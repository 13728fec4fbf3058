"""The multi-tenant admission-control service.

The paper's Eq. 5 bound *is* an online admission test: a stream set is
schedulable iff Algorithm 1 finds block sizes with ``η_s / γ_s ≥ μ_s`` for
every stream.  :class:`AdmissionService` turns that one-shot test into a
long-running allocator in the UltraShare mould: many tenants concurrently
ask to join and leave streams, the service batches compatible requests
into single mode transitions (the same re-solve→freeze→reprogram shape
:class:`repro.arch.reconfig.ReconfigurationManager` executes on the
cycle-level model), and every answer carries the Eq. 5 verdict plus the
closed-form transition budget that manager holds a single join or leave
to (:func:`repro.core.conformance.transition_budget`).

Failure envelope — the robustness machinery is the point, not an add-on:

* **bounded admission queue** — joins/leaves past ``queue_depth`` are
  rejected immediately with ``overloaded`` instead of queueing unboundedly;
* **per-request deadlines** — a request whose deadline lapses before its
  batch commits is rejected with ``deadline``, and a transition never
  includes an expired request (no half-applied state: all mutations happen
  in one synchronous commit step after every check has passed);
* **circuit breaker on injected solvers** — Algorithm 1 itself is exact
  and cheap enough to solve inline
  (:func:`repro.core.blocksize_ilp.resolve_block_sizes`); a custom
  ``solver=`` (or an armed chaos stall) runs under ``solver_timeout``, and
  repeated timeouts or :class:`~repro.serve.breaker.SolverError` open the
  breaker (:mod:`repro.serve.breaker`).  While it is open, requests get
  the exact answer labelled ``"closed-form"``, and joins above
  ``breaker_load_limit`` are rejected ``breaker_open``;
* **graceful shedding** — when admission would fail, or the committed
  load crosses ``shed_watermark``, the lowest-priority streams are shed
  (the :class:`repro.sim.faults.AdmissionController` pause policy, applied
  permanently at the service level);
* **idempotency keys** — retried joins/leaves are applied exactly once;
  the response recorded at commit time is replayed to any retry, so even
  a handler crash *between* commit and response cannot double-apply;
* **solve coalescing** — identical in-flight solves of an injected solver
  (a thundering herd of quotes, or quotes racing a transition) share one
  solver call through a per-fingerprint future, backed by the LRU-bounded
  :class:`repro.exp.cache.SolverCache`.

Every applied transition is journaled; :func:`replay_journal` rebuilds the
final system bit-identically from the journal alone (the crash-recovery
path), and :func:`journal_to_fault_plan` projects a journal onto the
cycle-level simulator as a churn plan for the reconfiguration manager.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

from ..core.blocksize_ilp import (
    BlockSizeResult,
    resolve_block_sizes,
    sharing_load,
    system_fingerprint,
)
from ..core.config_io import system_to_dict
from ..core.conformance import transition_budget
from ..core.params import GatewaySystem, ParameterError, StreamSpec
from ..core.timing import gamma
from ..exp.cache import SolverCache
from ..sim.faults import STREAM_JOIN, STREAM_LEAVE, FaultPlan, FaultSpec
from .breaker import OPEN, CircuitBreaker, SolverError
from .chaos import InjectedCrash, ServeChaos
from .protocol import (
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
)

__all__ = [
    "AdmissionService",
    "ReplayError",
    "replay_journal",
    "journal_to_fault_plan",
    "state_fingerprint",
]

#: reject codes safe to latch under an idempotency key — the answer would
#: be the same on any retry; transient conditions (overloaded, deadline,
#: internal, breaker_open) must stay retryable
_DEFINITIVE_REJECTS = frozenset(
    {"bound_exceeded", "already_joined", "unknown_stream", "not_owner",
     "last_stream"}
)

#: baseline (config-file) streams join with this priority unless shed
#: explicitly; real tenants default to 0, so the baseline sheds last
BASELINE_PRIORITY = 1_000_000
BASELINE_TENANT = "__baseline__"


class ReplayError(ValueError):
    """Raised when a journal does not replay onto its recorded fingerprints."""


def state_fingerprint(system: GatewaySystem) -> str:
    """SHA-256 over the canonical JSON of the full assigned system.

    This is the service's *state* identity — unlike
    :func:`~repro.core.blocksize_ilp.system_fingerprint` it covers the
    block sizes, so two services agree on it only if their entire mode
    (stream set, costs **and** η assignment) is bit-identical.
    """
    blob = json.dumps(system_to_dict(system), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class _Session:
    """One admitted stream's ownership record."""

    stream: str
    tenant: str
    priority: int
    #: index of the transition that admitted it (−1 for baseline streams)
    joined_at: int

    def to_dict(self) -> dict[str, Any]:
        return {"stream": self.stream, "tenant": self.tenant,
                "priority": self.priority, "joined_at": self.joined_at}


@dataclass
class _Pending:
    """One queued join/leave awaiting its batch."""

    req: Request
    future: asyncio.Future
    enqueued_at: float
    deadline_at: float | None

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at


class AdmissionService:
    """Long-running multi-tenant admission control over Eq. 5.

    Parameters
    ----------
    system:
        The baseline mode.  Streams without block sizes are solved at
        construction (synchronously); an infeasible baseline raises
        :class:`~repro.core.params.ParameterError`.
    queue_depth:
        Bound on queued (accepted-but-uncommitted) join/leave requests;
        beyond it, requests are rejected ``overloaded``.
    batch_max:
        Most requests folded into one mode transition.
    max_streams:
        Hard cap on concurrently admitted streams (bounded state).
    solver:
        Override for the solve: ``f(candidate, previous) ->
        BlockSizeResult`` (sync or async), raising
        :class:`~repro.serve.breaker.SolverError` when it cannot answer.
        Default: :func:`resolve_block_sizes`, called inline.
    solver_timeout:
        Seconds an injected solver (or a chaos-stalled solve) may take
        before it counts as a breaker failure and the request degrades to
        the ``"closed-form"`` path.
    breaker:
        The :class:`CircuitBreaker` guarding an injected solver.
    cache:
        A :class:`SolverCache`; shared across quotes/transitions.
    eta_max:
        Cap on any certified block size (C-FIFO headroom); answers needing
        a larger η are rejected.
    shed_watermark:
        Committed-load threshold above which lowest-priority streams are
        proactively shed.
    breaker_load_limit:
        Highest candidate load the ``"closed-form"`` path will admit; above
        it (while the breaker is open) joins are rejected ``breaker_open``.
    chaos:
        Optional :class:`ServeChaos` fault-injection policy (tests/soak).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        system: GatewaySystem,
        *,
        c1_mode: str = "sum",
        queue_depth: int = 128,
        batch_max: int = 8,
        max_streams: int = 1024,
        solver: Callable[..., Any] | None = None,
        solver_timeout: float = 5.0,
        breaker: CircuitBreaker | None = None,
        cache: SolverCache | None = None,
        eta_max: int | None = 65536,
        shed_watermark: Fraction = Fraction(9, 10),
        breaker_load_limit: Fraction = Fraction(17, 20),
        idempotency_capacity: int = 65536,
        chaos: ServeChaos | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_depth < 1 or batch_max < 1 or max_streams < 1:
            raise ParameterError(
                "queue_depth, batch_max and max_streams must be >= 1"
            )
        self.c1_mode = c1_mode
        self.queue_depth = queue_depth
        self.batch_max = batch_max
        self.max_streams = max_streams
        self.solver_timeout = solver_timeout
        self.eta_max = eta_max
        self.shed_watermark = shed_watermark
        self.breaker_load_limit = breaker_load_limit
        self.idempotency_capacity = idempotency_capacity
        self.breaker = breaker or CircuitBreaker()
        self.cache = cache or SolverCache(capacity=2048)
        self.chaos = chaos
        self._solver = solver
        self._clock = clock

        if any(s.block_size is None for s in system.streams):
            result = self._resolve(system, None)
            system = system.with_block_sizes(result.block_sizes)
        else:
            result = BlockSizeResult(
                block_sizes={s.name: s.block_size for s in system.streams},
                objective=sum(s.block_size for s in system.streams),
                feasible=True, backend="given", load=sharing_load(system),
                fingerprint=system_fingerprint(system, c1_mode=c1_mode),
            )
        #: the baseline mode, kept for journal replay
        self.initial_system = system
        self.system = system
        self._result = result

        self._sessions: dict[str, _Session] = {
            s.name: _Session(s.name, BASELINE_TENANT, BASELINE_PRIORITY, -1)
            for s in system.streams
        }
        #: applied transitions, in commit order (the journal)
        self.transitions: list[dict[str, Any]] = []
        #: streams shed by the degradation policy, in shed order
        self.shed_log: list[dict[str, Any]] = []
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(maxsize=queue_depth)
        self._carry: _Pending | None = None
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._idem: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._idem_inflight: dict[str, _Pending] = {}
        self._worker_task: asyncio.Task | None = None
        self._running = False
        self._draining = False
        #: set when a client asked for shutdown (the server layer awaits it)
        self.shutdown_requested = asyncio.Event()
        self.counters: dict[str, Any] = {
            "admitted": 0,
            "left": 0,
            "rejected": Counter(),
            "transitions": 0,
            "sheds": 0,
            "coalesced_solves": 0,
            "solver_timeouts": 0,
            "handler_crashes": 0,
            "idempotent_replays": 0,
            "quotes": 0,
        }

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "AdmissionService":
        """Spawn the batch worker (idempotent)."""
        if not self._running:
            self._running = True
            self._worker_task = asyncio.get_running_loop().create_task(
                self._worker(), name="admission-batch-worker"
            )
        return self

    async def stop(self) -> None:
        """Drain: reject queued work as ``shutting_down`` and join the worker."""
        if not self._running:
            return
        self._running = False
        self._draining = True
        # unblock the worker's queue.get with a sentinel
        try:
            self._queue.put_nowait(None)  # type: ignore[arg-type]
        except asyncio.QueueFull:
            pass
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        for p in self._drain_pending():
            self._finish(p, error_response(
                p.req.op, "shutting_down", "service is draining"))

    def _drain_pending(self) -> list[_Pending]:
        drained: list[_Pending] = []
        if self._carry is not None:
            drained.append(self._carry)
            self._carry = None
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                drained.append(item)
        return drained

    async def __aenter__(self) -> "AdmissionService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- derived views ---------------------------------------------------
    @property
    def load(self) -> Fraction:
        """Committed aggregate load ``c0·Σμ`` of the current mode."""
        return sharing_load(self.system)

    def fingerprint(self) -> str:
        """The current mode's :func:`state_fingerprint`."""
        return state_fingerprint(self.system)

    def journal(self) -> list[dict[str, Any]]:
        """A deep copy of every applied transition, in commit order."""
        return json.loads(json.dumps(self.transitions))

    def status(self) -> dict[str, Any]:
        return ok_response(
            "status",
            streams={name: {
                **s.to_dict(),
                "eta": self.system.stream(name).block_size,
            } for name, s in sorted(self._sessions.items())},
            load=float(self.load),
            load_exact=[self.load.numerator, self.load.denominator],
            queue_depth=self._queue.qsize(),
            queue_capacity=self.queue_depth,
            breaker=self.breaker.stats(),
            transitions=len(self.transitions),
            shed=list(self.shed_log),
            fingerprint=self.fingerprint(),
            counters={**self.counters,
                      "rejected": dict(self.counters["rejected"])},
            cache=self.cache.stats(),
        )

    # -- request entry point ---------------------------------------------
    async def submit(self, raw: Any) -> dict[str, Any]:
        """Handle one decoded request; always returns a response dict."""
        try:
            req = parse_request(raw)
        except ProtocolError as exc:
            self.counters["rejected"]["malformed"] += 1
            return error_response(
                raw.get("op") if isinstance(raw, dict) else None,
                "malformed", str(exc),
            )
        if req.op == "status":
            return self.status()
        if req.op == "shutdown":
            self._draining = True
            self.shutdown_requested.set()
            return ok_response("shutdown", draining=True)
        if req.op == "quote":
            self.counters["quotes"] += 1
            return await self._quote(req)

        # join / leave
        key = req.idempotency_key
        if key is not None:
            recorded = self._idem.get(key)
            if recorded is not None:
                self.counters["idempotent_replays"] += 1
                return {**recorded, "replayed": True}
            inflight = self._idem_inflight.get(key)
            if inflight is not None:
                # concurrent retry of an in-flight request: share the outcome
                self.counters["idempotent_replays"] += 1
                return await asyncio.shield(inflight.future)
        if self._draining or not self._running:
            self.counters["rejected"]["shutting_down"] += 1
            return error_response(req.op, "shutting_down",
                                  "service is draining")
        now = self._clock()
        pending = _Pending(
            req=req,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline_at=None if req.deadline is None else now + req.deadline,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.counters["rejected"]["overloaded"] += 1
            return error_response(
                req.op, "overloaded",
                f"admission queue full ({self.queue_depth} pending)",
                queue_depth=self.queue_depth,
            )
        if key is not None:
            self._idem_inflight[key] = pending
        return await pending.future

    # -- the batch worker ------------------------------------------------
    async def _worker(self) -> None:
        while self._running:
            first = self._carry
            self._carry = None
            if first is None:
                first = await self._queue.get()
            if first is None:  # stop sentinel
                break
            batch = [first]
            targets = {first.req.stream}
            while len(batch) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    self._running = False
                    break
                if nxt.req.stream in targets:
                    # two requests for the same stream cannot share a
                    # transition; hold the second for the next batch
                    self._carry = nxt
                    break
                targets.add(nxt.req.stream)
                batch.append(nxt)
            await self._process_batch(batch)

    async def _process_batch(self, batch: list[_Pending]) -> None:
        try:
            await self._run_batch(batch)
        except InjectedCrash as exc:
            self._crash_batch(batch, exc)
        except Exception as exc:  # never let one batch kill the worker
            self._crash_batch(batch, exc)

    def _crash_batch(self, batch: list[_Pending], exc: Exception) -> None:
        self.counters["handler_crashes"] += 1
        for p in batch:
            if not p.future.done():
                self._finish(p, error_response(
                    p.req.op, "internal",
                    f"handler crashed ({exc}); safe to retry",
                ))

    async def _run_batch(self, batch: list[_Pending]) -> None:
        live: list[_Pending] = []
        for p in batch:
            err = self._screen(p)
            if err is not None:
                self._finish(p, err)
            else:
                live.append(p)
        if not live:
            return
        if self.chaos is not None:
            self.chaos.crash_point("pre")
        if len(live) == 1:
            await self._apply(live, allow_reject=True)
        elif not await self._apply(live, allow_reject=False):
            # the combined transition is infeasible as a whole; degrade to
            # per-request transitions so independently-admissible requests
            # are not punished for sharing a batch with a doomed one
            for p in live:
                if not p.future.done():
                    await self._apply([p], allow_reject=True)

    # -- screening -------------------------------------------------------
    def _screen(self, p: _Pending) -> dict[str, Any] | None:
        """Validate one request against committed state; an error response
        means it never reaches a transition."""
        req = p.req
        if p.expired(self._clock()):
            self.counters["rejected"]["deadline"] += 1
            return error_response(req.op, "deadline",
                                  "deadline expired before processing")
        if req.op == "join":
            if req.stream in self._sessions:
                self.counters["rejected"]["already_joined"] += 1
                return error_response(
                    req.op, "already_joined",
                    f"stream {req.stream!r} is already admitted",
                )
            if len(self._sessions) >= self.max_streams:
                self.counters["rejected"]["overloaded"] += 1
                return error_response(
                    req.op, "overloaded",
                    f"stream table full ({self.max_streams} streams)",
                    max_streams=self.max_streams,
                )
        else:  # leave
            session = self._sessions.get(req.stream)
            if session is None:
                self.counters["rejected"]["unknown_stream"] += 1
                return error_response(
                    req.op, "unknown_stream",
                    f"stream {req.stream!r} is not admitted",
                )
            if session.tenant != req.tenant:
                self.counters["rejected"]["not_owner"] += 1
                return error_response(
                    req.op, "not_owner",
                    f"stream {req.stream!r} belongs to tenant "
                    f"{session.tenant!r}",
                )
            if len(self._sessions) == 1:
                self.counters["rejected"]["last_stream"] += 1
                return error_response(
                    req.op, "last_stream",
                    "cannot remove the last stream",
                )
        return None

    # -- transitions -----------------------------------------------------
    def _candidate(self, group: list[_Pending],
                   minus: tuple[str, ...] = ()) -> GatewaySystem:
        streams: list[StreamSpec] = [
            s for s in self.system.streams
            if s.name not in minus
        ]
        for p in group:
            if p.req.op == "join":
                streams.append(StreamSpec(
                    p.req.stream, p.req.throughput, p.req.reconfigure))
            else:
                streams = [s for s in streams if s.name != p.req.stream]
        return replace(self.system, streams=tuple(streams))

    async def _apply(self, group: list[_Pending], allow_reject: bool) -> bool:
        """Solve and commit one transition for ``group``.

        Returns False (without answering anyone) when the transition is
        rejected and ``allow_reject`` is False — the caller retries the
        requests individually.
        """
        now = self._clock()
        expired = [p for p in group if p.expired(now)]
        for p in expired:
            self.counters["rejected"]["deadline"] += 1
            self._finish(p, error_response(
                p.req.op, "deadline", "deadline expired before commit"))
        group = [p for p in group if p not in expired]
        if not group:
            return True

        sheds: tuple[str, ...] = ()
        candidate = self._candidate(group)
        verdict = await self._solve_shared(candidate)
        if verdict[0] == "reject":
            joins = [p for p in group if p.req.op == "join"]
            if len(group) == 1 and joins:
                shed_verdict = await self._try_shed_assisted(joins[0])
                if shed_verdict is not None:
                    sheds, candidate, verdict = shed_verdict
            if verdict[0] == "reject":
                if not allow_reject:
                    return False
                _tag, code, message = verdict
                for p in group:
                    self.counters["rejected"][code] += 1
                    self._finish(p, error_response(p.req.op, code, message))
                return True

        _tag, result, path = verdict
        # the solve awaited; deadlines may have lapsed meanwhile — an
        # expired request must not ride into the commit, so drop it and
        # re-run the (smaller) transition
        now = self._clock()
        if any(p.expired(now) for p in group):
            for p in group:
                if p.expired(now):
                    self.counters["rejected"]["deadline"] += 1
                    self._finish(p, error_response(
                        p.req.op, "deadline", "deadline expired during solve"))
            remaining = [p for p in group if not p.future.done()]
            if not remaining:
                return True
            return await self._apply(remaining, allow_reject)

        responses = self._commit(candidate, result, path, group, sheds,
                                 via="batch")
        if self.chaos is not None:
            # the canonical double-apply trap: crash *after* the commit,
            # *before* the responses — the transition is journaled and the
            # idempotency store already holds the answers, so retries
            # observe exactly-once semantics
            self.chaos.crash_point("post")
        # watermark maintenance runs before the responses resolve so a
        # client observing its own answer sees the post-shed state; the
        # committed answers are already latched, so a crash inside the
        # shed solve still yields exactly-once retries
        await self._proactive_shed(exempt={p.req.stream for p in group})
        for p, resp in responses:
            self._finish(p, resp, already_latched=True)
        return True

    async def _try_shed_assisted(
        self, p: _Pending
    ) -> tuple[tuple[str, ...], GatewaySystem, tuple] | None:
        """Make room for a higher-priority join by shedding lower priority.

        Victims are the currently-admitted streams with strictly lower
        priority, worst first; the first prefix whose removal makes the
        join feasible wins.  Returns None when no shedding helps.
        """
        victims = self._shed_order(max_priority=p.req.priority)
        for k in range(1, len(victims) + 1):
            minus = tuple(v.stream for v in victims[:k])
            candidate = self._candidate([p], minus=minus)
            verdict = await self._solve_shared(candidate)
            if verdict[0] == "ok":
                return minus, candidate, verdict
        return None

    def _shed_order(self, max_priority: int | None = None) -> list[_Session]:
        """Shed candidates, worst first: lowest priority, newest joiner."""
        sessions = [
            s for s in self._sessions.values()
            if max_priority is None or s.priority < max_priority
        ]
        sessions.sort(key=lambda s: (s.priority, -s.joined_at))
        return sessions

    async def _proactive_shed(self, exempt: set[str]) -> None:
        """Shed lowest-priority streams while the committed load sits above
        the watermark (the AdmissionController policy, service-level).

        Streams of the transition that just committed are exempt — they
        paid for admission under Eq. 5 and are not immediately evicted.
        """
        while self.load > self.shed_watermark and len(self._sessions) > 1:
            order = [s for s in self._shed_order() if s.stream not in exempt]
            if not order:
                return
            victim = order[0]
            candidate = self._candidate([], minus=(victim.stream,))
            verdict = await self._solve_shared(candidate)
            if verdict[0] != "ok":
                return
            _tag, result, path = verdict
            self._commit(candidate, result, path, [], (victim.stream,),
                         via="shed")

    def _commit(
        self,
        candidate: GatewaySystem,
        result: BlockSizeResult,
        path: str,
        group: list[_Pending],
        sheds: tuple[str, ...],
        via: str,
    ) -> list[tuple[_Pending, dict[str, Any]]]:
        """Atomically apply one transition: single synchronous step, no
        awaits — a crash before this ran leaves no trace, a crash after it
        finds the journal and idempotency store already consistent."""
        outgoing = self.system
        new_system = candidate.with_block_sizes(result.block_sizes)
        index = len(self.transitions)
        budget, words = transition_budget(outgoing, len(new_system.streams))
        applied: list[dict[str, Any]] = []
        for p in group:
            req = p.req
            if req.op == "join":
                applied.append({
                    "op": "join", "stream": req.stream, "tenant": req.tenant,
                    "throughput": [req.throughput.numerator,
                                   req.throughput.denominator],
                    "reconfigure": req.reconfigure,
                    "priority": req.priority,
                })
            else:
                applied.append({"op": "leave", "stream": req.stream,
                                "tenant": req.tenant})

        self.system = new_system
        self._result = replace(
            result,
            fingerprint=system_fingerprint(new_system, c1_mode=self.c1_mode),
        )
        for name in sheds:
            session = self._sessions.pop(name)
            self.shed_log.append({"stream": name, "tenant": session.tenant,
                                  "priority": session.priority,
                                  "transition": index})
            self.counters["sheds"] += 1
        for p in group:
            if p.req.op == "join":
                self._sessions[p.req.stream] = _Session(
                    p.req.stream, p.req.tenant, p.req.priority, index)
                self.counters["admitted"] += 1
            else:
                self._sessions.pop(p.req.stream, None)
                self.counters["left"] += 1
        load = sharing_load(new_system)
        entry = {
            "index": index,
            "via": via,
            "applied": applied,
            "shed": list(sheds),
            "block_sizes": dict(result.block_sizes),
            "solver": path,
            "load": [load.numerator, load.denominator],
            "budget": budget,
            "bus_words": words,
            "fingerprint": state_fingerprint(new_system),
        }
        self.transitions.append(entry)
        self.counters["transitions"] += 1

        responses: list[tuple[_Pending, dict[str, Any]]] = []
        for p in group:
            resp = self._build_response(p.req, entry, new_system)
            if p.req.idempotency_key is not None:
                self._latch(p.req.idempotency_key, resp)
            responses.append((p, resp))
        return responses

    def _build_response(self, req: Request, entry: dict[str, Any],
                        system: GatewaySystem) -> dict[str, Any]:
        common = {
            "stream": req.stream,
            "transition": entry["index"],
            "budget": entry["budget"],
            "solver": entry["solver"],
            "load": entry["load"],
        }
        if req.op == "join":
            eta = entry["block_sizes"][req.stream]
            g = gamma(system, req.stream)
            guaranteed = Fraction(eta, g)
            return ok_response(
                "join", admitted=True, eta=eta, gamma=g,
                guaranteed=[guaranteed.numerator, guaranteed.denominator],
                **common,
            )
        return ok_response("leave", **common)

    # -- solving ---------------------------------------------------------
    async def _solve_shared(self, candidate: GatewaySystem) -> tuple:
        """Memoized, coalesced solve; never raises through shared futures.

        Returns ``("ok", BlockSizeResult, path)`` or
        ``("reject", code, message)``.
        """
        fp = system_fingerprint(candidate, c1_mode=self.c1_mode)
        cached = self.cache.get(fp)
        if cached is not None:
            return ("ok", cached, "memo")
        shared = self._inflight.get(fp)
        if shared is not None:
            self.counters["coalesced_solves"] += 1
            return await asyncio.shield(shared)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[fp] = fut
        try:
            verdict = await self._solve_uncoalesced(candidate, fp)
        except BaseException:
            if not fut.done():
                fut.set_result(("reject", "internal", "solve crashed"))
            raise
        else:
            if not fut.done():
                fut.set_result(verdict)
            return verdict
        finally:
            self._inflight.pop(fp, None)

    async def _solve_uncoalesced(self, candidate: GatewaySystem,
                                 fp: tuple) -> tuple:
        if self._solver is None and self.chaos is None:
            return self._exact(candidate, fp, "exact")
        breaker = self.breaker
        if breaker.state == OPEN or not breaker.begin_probe():
            return self._degraded(candidate, fp)

        async def attempt() -> BlockSizeResult:
            if self.chaos is not None:
                await self.chaos.maybe_stall_solve()
            return await self._call_solver(candidate)

        try:
            result = await asyncio.wait_for(attempt(), self.solver_timeout)
        except (asyncio.TimeoutError, SolverError):
            breaker.record_failure()
            self.counters["solver_timeouts"] += 1
            # degrade this request rather than failing it
            return self._degraded(candidate, fp)
        except ParameterError as exc:
            # infeasibility is an *answer*, not a solver failure
            breaker.record_success()
            return ("reject", "bound_exceeded", str(exc))
        breaker.record_success()
        self.cache.put(fp, result)
        return ("ok", result, "exact")

    def _resolve(self, candidate: GatewaySystem,
                 previous: BlockSizeResult | None) -> BlockSizeResult:
        return resolve_block_sizes(candidate, previous=previous,
                                   c1_mode=self.c1_mode, eta_max=self.eta_max)

    def _exact(self, candidate: GatewaySystem, fp: tuple, path: str) -> tuple:
        """Algorithm 1 inline: the verdict under the ``path`` label."""
        try:
            result = self._resolve(candidate, self._result)
        except ParameterError as exc:
            return ("reject", "bound_exceeded", str(exc))
        self.cache.put(fp, result)
        return ("ok", result, path)

    def _degraded(self, candidate: GatewaySystem, fp: tuple) -> tuple:
        """The answer served while the injected solver is out."""
        load = sharing_load(candidate)
        if self.breaker_load_limit < load < 1:
            return ("reject", "breaker_open",
                    f"solver unavailable and load {float(load):.4f} exceeds "
                    f"the breaker load limit "
                    f"{float(self.breaker_load_limit):.2f}")
        return self._exact(candidate, fp, "closed-form")

    async def _call_solver(self, candidate: GatewaySystem) -> BlockSizeResult:
        out = (self._solver or self._resolve)(candidate, self._result)
        if asyncio.iscoroutine(out):
            out = await out
        return out

    # -- quotes ----------------------------------------------------------
    async def _quote(self, req: Request) -> dict[str, Any]:
        """Dry-run admission: the Eq. 5 verdict and budget, no mutation."""
        if req.stream in self._sessions:
            return ok_response("quote", admit=False, reason="already_joined",
                               stream=req.stream)
        candidate = self._candidate_for_quote(req)
        verdict = await self._solve_shared(candidate)
        if verdict[0] == "reject":
            _tag, code, message = verdict
            return ok_response("quote", admit=False, reason=code,
                               message=message, stream=req.stream)
        _tag, result, path = verdict
        budget, _words = transition_budget(self.system, len(candidate.streams))
        assigned = candidate.with_block_sizes(result.block_sizes)
        eta = result.block_sizes[req.stream]
        g = gamma(assigned, req.stream)
        guaranteed = Fraction(eta, g)
        load = sharing_load(candidate)
        return ok_response(
            "quote", admit=True, stream=req.stream, eta=eta, gamma=g,
            guaranteed=[guaranteed.numerator, guaranteed.denominator],
            budget=budget, solver=path,
            load=[load.numerator, load.denominator],
        )

    def _candidate_for_quote(self, req: Request) -> GatewaySystem:
        streams = (*self.system.streams,
                   StreamSpec(req.stream, req.throughput, req.reconfigure))
        return replace(self.system, streams=streams)

    # -- bookkeeping -----------------------------------------------------
    def _latch(self, key: str, response: dict[str, Any]) -> None:
        self._idem[key] = response
        self._idem.move_to_end(key)
        while len(self._idem) > self.idempotency_capacity:
            self._idem.popitem(last=False)

    def _finish(self, p: _Pending, response: dict[str, Any],
                already_latched: bool = False) -> None:
        key = p.req.idempotency_key
        if key is not None:
            self._idem_inflight.pop(key, None)
            if not already_latched and not response.get("ok") \
                    and response["error"]["code"] in _DEFINITIVE_REJECTS:
                self._latch(key, response)
        if not p.future.done():
            p.future.set_result(response)


# ---------------------------------------------------------------------------
# journal replay & simulator projection
# ---------------------------------------------------------------------------

def replay_journal(
    initial_system: GatewaySystem,
    journal: list[dict[str, Any]],
) -> GatewaySystem:
    """Rebuild the final mode from the baseline plus the applied journal.

    This is the crash-recovery path: the journal alone (applied requests,
    shed decisions and the committed block sizes) deterministically
    reconstructs the service's state, and every entry's recorded
    fingerprint is re-verified along the way — a divergence raises
    :class:`ReplayError` at the exact transition that drifted.
    """
    system = initial_system
    system.require_block_sizes()
    for entry in journal:
        streams = list(system.streams)
        removed = {op["stream"] for op in entry["applied"]
                   if op["op"] == "leave"}
        removed |= set(entry.get("shed", ()))
        streams = [s for s in streams if s.name not in removed]
        for op in entry["applied"]:
            if op["op"] == "join":
                num, den = op["throughput"]
                streams.append(StreamSpec(
                    op["stream"], Fraction(num, den), op["reconfigure"]))
        system = replace(system, streams=tuple(streams)).with_block_sizes(
            entry["block_sizes"])
        got = state_fingerprint(system)
        if got != entry["fingerprint"]:
            raise ReplayError(
                f"transition {entry['index']} replays to fingerprint "
                f"{got[:16]}..., journal recorded "
                f"{entry['fingerprint'][:16]}..."
            )
    return system


def journal_to_fault_plan(
    journal: list[dict[str, Any]],
    *,
    start_at: int = 1024,
    spacing: int = 4096,
    seed: int = 0,
) -> FaultPlan:
    """Project a service journal onto the cycle-level simulator.

    Every applied (and shed) stream change becomes a churn
    :class:`~repro.sim.faults.FaultSpec` for the
    :class:`~repro.arch.reconfig.ReconfigurationManager`; all requests of
    one service transition share an arming cycle, mirroring how the batch
    committed as a single mode change.  Feed the plan to a
    :class:`repro.api.Scenario` built from the service's
    ``initial_system`` to check the admitted schedule end to end.
    """
    specs: list[FaultSpec] = []
    for i, entry in enumerate(journal):
        at = start_at + i * spacing
        for op in entry["applied"]:
            if op["op"] == "join":
                specs.append(FaultSpec(
                    kind=STREAM_JOIN, at=at, target=op["stream"],
                    params={"throughput": list(op["throughput"]),
                            "reconfigure": op["reconfigure"],
                            "block_size": entry["block_sizes"][op["stream"]]},
                ))
            else:
                specs.append(FaultSpec(
                    kind=STREAM_LEAVE, at=at, target=op["stream"]))
        for name in entry.get("shed", ()):
            specs.append(FaultSpec(kind=STREAM_LEAVE, at=at, target=name))
    return FaultPlan(specs=tuple(specs), seed=seed)
