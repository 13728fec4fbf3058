"""AdmissionService unit tests: protocol, failure envelope, journal replay.

Everything runs in-process against the service object — no sockets — with
injected clocks, solvers and chaos so each failure path is deterministic.
"""

import asyncio
from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    compute_block_sizes,
)
from repro.core.blocksize_ilp import resolve_block_sizes
from repro.serve import (
    AdmissionService,
    CircuitBreaker,
    InjectedCrash,
    ProtocolError,
    ReplayError,
    ServeChaos,
    SolverError,
    error_response,
    journal_to_fault_plan,
    parse_request,
    replay_journal,
    state_fingerprint,
)
from repro.sim.faults import STREAM_JOIN, STREAM_LEAVE


def make_system(dens=(6000, 8000), entry=15, reconfigure=100):
    return GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", 1),),
        streams=tuple(
            StreamSpec(f"s{i}", Fraction(1, den), reconfigure)
            for i, den in enumerate(dens)
        ),
        entry_copy=entry,
        exit_copy=1,
    )


def run(coro):
    return asyncio.run(coro)


JOIN = {"op": "join", "tenant": "t", "stream": "x",
        "throughput": [1, 4096], "reconfigure": 16}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_parse_rejects_unknown_op_with_hint():
    with pytest.raises(ProtocolError, match="did you mean 'join'"):
        parse_request({"op": "jion"})


def test_parse_rejects_unknown_field_with_hint():
    with pytest.raises(ProtocolError, match="did you mean 'throughput'"):
        parse_request({**JOIN, "troughput": [1, 2]})


def test_parse_rejects_bad_throughput_and_deadline():
    with pytest.raises(ProtocolError, match="throughput"):
        parse_request({**JOIN, "throughput": [0, 5]})
    with pytest.raises(ProtocolError, match="throughput"):
        parse_request({**JOIN, "throughput": "fast"})
    with pytest.raises(ProtocolError, match="deadline"):
        parse_request({**JOIN, "deadline": -1})
    with pytest.raises(ProtocolError, match="deadline"):
        parse_request({**JOIN, "deadline": True})


def test_parse_rejects_non_object_and_missing_op():
    with pytest.raises(ProtocolError, match="JSON object"):
        parse_request([1, 2])
    with pytest.raises(ProtocolError, match="'op'"):
        parse_request({})


def test_error_response_refuses_unknown_code():
    with pytest.raises(ValueError, match="unknown reject code"):
        error_response("join", "nope", "message")


# ---------------------------------------------------------------------------
# admission basics
# ---------------------------------------------------------------------------

def test_join_quote_leave_roundtrip():
    async def main():
        async with AdmissionService(make_system()) as svc:
            before = svc.fingerprint()
            q = await svc.submit({**JOIN, "op": "quote"})
            assert q["ok"] and q["admit"] is True
            assert svc.fingerprint() == before  # quotes never mutate
            j = await svc.submit(dict(JOIN))
            assert j["ok"] and j["admitted"] and j["eta"] >= 1
            assert j["budget"] > 0 and j["transition"] == 0
            num, den = j["guaranteed"]
            assert Fraction(num, den) >= Fraction(1, 4096)  # Eq. 5 honoured
            lv = await svc.submit({"op": "leave", "tenant": "t", "stream": "x"})
            assert lv["ok"]
            assert svc.fingerprint() == before
    run(main())


def test_default_solve_is_exact_and_bypasses_the_breaker():
    async def main():
        async with AdmissionService(make_system()) as svc:
            j = await svc.submit(dict(JOIN))
            assert j["solver"] == "exact"
            assert j["eta"] == compute_block_sizes(svc.system).block_sizes["x"]
            q = await svc.submit({**JOIN, "op": "quote", "stream": "y"})
            assert q["solver"] == "exact"
            again = await svc.submit({**JOIN, "op": "quote", "stream": "y"})
            assert again["solver"] == "memo"
            # the inline solve never consults the breaker
            assert svc.breaker.stats()["successes"] == 0
    run(main())


def test_definitive_reject_codes():
    async def main():
        async with AdmissionService(make_system()) as svc:
            await svc.submit(dict(JOIN))
            dup = await svc.submit({**JOIN, "tenant": "other"})
            assert dup["error"]["code"] == "already_joined"
            greedy = await svc.submit({**JOIN, "stream": "g",
                                       "throughput": [9, 1]})
            assert greedy["error"]["code"] == "bound_exceeded"
            ghost = await svc.submit({"op": "leave", "tenant": "t",
                                      "stream": "ghost"})
            assert ghost["error"]["code"] == "unknown_stream"
            imposter = await svc.submit({"op": "leave", "tenant": "other",
                                         "stream": "x"})
            assert imposter["error"]["code"] == "not_owner"
            malformed = await svc.submit({"op": "jion"})
            assert malformed["error"]["code"] == "malformed"
    run(main())


def test_last_stream_is_protected():
    async def main():
        system = make_system(dens=(6000,))
        async with AdmissionService(system) as svc:
            r = await svc.submit({"op": "leave", "tenant": "__baseline__",
                                  "stream": "s0"})
            assert r["error"]["code"] == "last_stream"
    run(main())


def test_status_snapshot_shape():
    async def main():
        async with AdmissionService(make_system()) as svc:
            await svc.submit(dict(JOIN))
            st = await svc.submit({"op": "status"})
            assert st["ok"]
            assert set(st["streams"]) == {"s0", "s1", "x"}
            assert st["streams"]["x"]["tenant"] == "t"
            assert 0 < st["load"] < 1
            assert st["breaker"]["state"] == "closed"
            assert st["counters"]["admitted"] == 1
            assert st["cache"]["capacity"] == 2048
    run(main())


# ---------------------------------------------------------------------------
# backpressure & deadlines
# ---------------------------------------------------------------------------

def test_overloaded_when_queue_full():
    async def main():
        started = asyncio.Event()
        release = asyncio.Event()

        async def slow_solver(candidate, previous):
            started.set()
            await release.wait()
            return resolve_block_sizes(candidate, previous=previous)

        svc = AdmissionService(make_system(), queue_depth=1,
                               solver=slow_solver, solver_timeout=30.0)
        async with svc:
            a = asyncio.create_task(svc.submit({**JOIN, "stream": "a"}))
            await started.wait()  # worker is mid-solve, queue is empty
            b = asyncio.create_task(svc.submit({**JOIN, "stream": "b"}))
            await asyncio.sleep(0)  # let b occupy the only queue slot
            c = await svc.submit({**JOIN, "stream": "c"})
            assert c["error"]["code"] == "overloaded"
            assert c["error"]["queue_depth"] == 1
            release.set()
            ra, rb = await asyncio.gather(a, b)
            assert ra["ok"] and rb["ok"]
    run(main())


def test_deadline_expiring_during_solve_never_half_applies():
    async def main():
        clock = FakeClock()

        async def slow_solver(candidate, previous):
            clock.t += 100.0  # the solve "takes" 100 s
            return resolve_block_sizes(candidate, previous=previous)

        svc = AdmissionService(make_system(), solver=slow_solver, clock=clock)
        async with svc:
            a = asyncio.create_task(svc.submit({**JOIN, "stream": "a"}))
            b = asyncio.create_task(
                svc.submit({**JOIN, "stream": "b", "deadline": 10}))
            ra, rb = await asyncio.gather(a, b)
            # b's deadline lapsed inside the shared batch solve: it must be
            # rejected, while a commits in a re-solved smaller transition
            assert rb["error"]["code"] == "deadline"
            assert ra["ok"] is True
            assert "b" not in {s.name for s in svc.system.streams}
            assert "a" in {s.name for s in svc.system.streams}
            # journal agrees: exactly one transition, mentioning only a
            assert len(svc.transitions) == 1
            assert [op["stream"] for op in svc.transitions[0]["applied"]] == ["a"]
    run(main())


# ---------------------------------------------------------------------------
# circuit breaker & conservative path
# ---------------------------------------------------------------------------

def _failing_solver(candidate, previous):
    raise SolverError("injected solver failure")


def test_breaker_degrades_to_closed_form_then_opens():
    async def main():
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3600.0)
        svc = AdmissionService(make_system(), solver=_failing_solver,
                               breaker=breaker)
        async with svc:
            # failures degrade to the conservative answer but still admit
            r1 = await svc.submit({**JOIN, "stream": "a"})
            assert r1["ok"] and r1["solver"] == "closed-form"
            r2 = await svc.submit({**JOIN, "stream": "b"})
            assert r2["ok"] and r2["solver"] == "closed-form"
            assert breaker.state == "open"
            # breaker now open: the solver is not even tried
            r3 = await svc.submit({**JOIN, "stream": "c"})
            assert r3["ok"] and r3["solver"] == "closed-form"
            assert svc.counters["solver_timeouts"] == 2  # no third attempt
            # the degraded answer is Algorithm 1's exact answer
            assert r3["eta"] == compute_block_sizes(svc.system).block_sizes["c"]
    run(main())


def test_breaker_open_reject_when_conservative_cannot_certify():
    async def main():
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3600.0)
        svc = AdmissionService(make_system(), solver=_failing_solver,
                               breaker=breaker,
                               breaker_load_limit=Fraction(1, 100))
        async with svc:
            await svc.submit({**JOIN, "stream": "a"})  # trips the breaker
            assert breaker.state == "open"
            # load beyond the conservative certification limit, solver down
            r = await svc.submit({**JOIN, "stream": "big",
                                  "throughput": [1, 64]})
            assert r["error"]["code"] == "breaker_open"
            # an infeasible-at-any-size request is still answered precisely
            r2 = await svc.submit({**JOIN, "stream": "huge",
                                   "throughput": [9, 1]})
            assert r2["error"]["code"] == "bound_exceeded"
    run(main())


def test_infeasibility_is_not_a_breaker_failure():
    async def main():
        breaker = CircuitBreaker(failure_threshold=1)
        svc = AdmissionService(make_system(), breaker=breaker)
        async with svc:
            r = await svc.submit({**JOIN, "stream": "g", "throughput": [9, 1]})
            assert r["error"]["code"] == "bound_exceeded"
            assert breaker.state == "closed"
            assert breaker.trips == 0
    run(main())


# ---------------------------------------------------------------------------
# solve coalescing & cache
# ---------------------------------------------------------------------------

def test_identical_inflight_quotes_share_one_solve():
    async def main():
        calls = []
        release = asyncio.Event()

        async def counting_solver(candidate, previous):
            calls.append(1)
            await release.wait()
            return resolve_block_sizes(candidate, previous=previous)

        svc = AdmissionService(make_system(), solver=counting_solver,
                               solver_timeout=30.0)
        async with svc:
            quote = {**JOIN, "op": "quote"}
            tasks = [asyncio.create_task(svc.submit(dict(quote)))
                     for _ in range(5)]
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(*tasks)
            assert all(r["ok"] and r["admit"] for r in results)
            assert len(calls) == 1  # the herd cost exactly one solve
            assert svc.counters["coalesced_solves"] == 4
            # a later identical quote is a pure cache hit
            again = await svc.submit(dict(quote))
            assert again["solver"] == "memo"
            assert len(calls) == 1
    run(main())


# ---------------------------------------------------------------------------
# idempotency & chaos
# ---------------------------------------------------------------------------

def test_crash_before_commit_leaves_state_unchanged():
    async def main():
        chaos = ServeChaos(crash_before=1.0)
        svc = AdmissionService(make_system(), chaos=chaos)
        async with svc:
            before = svc.fingerprint()
            r = await svc.submit({**JOIN, "idempotency_key": "k"})
            assert r["error"]["code"] == "internal"
            assert svc.fingerprint() == before
            assert svc.transitions == []
            assert chaos.crashes == 1
    run(main())


def test_crash_after_commit_retry_is_exactly_once():
    async def main():
        chaos = ServeChaos(crash_after=1.0)
        svc = AdmissionService(make_system(), chaos=chaos)
        async with svc:
            r = await svc.submit({**JOIN, "idempotency_key": "k"})
            # the client saw a crash ...
            assert r["error"]["code"] == "internal"
            # ... but the transition committed before the crash point
            assert len(svc.transitions) == 1
            assert "x" in {s.name for s in svc.system.streams}
            # the retry replays the recorded answer — no second transition
            retry = await svc.submit({**JOIN, "idempotency_key": "k"})
            assert retry["ok"] and retry["replayed"] is True
            assert retry["transition"] == 0
            assert len(svc.transitions) == 1
    run(main())


def test_transient_rejects_are_never_latched():
    async def main():
        chaos = ServeChaos(crash_before=1.0)
        svc = AdmissionService(make_system(), chaos=chaos)
        async with svc:
            r = await svc.submit({**JOIN, "idempotency_key": "k"})
            assert r["error"]["code"] == "internal"
            svc.chaos = None  # chaos subsides; the retry must go through
            retry = await svc.submit({**JOIN, "idempotency_key": "k"})
            assert retry["ok"] and "replayed" not in retry
    run(main())


def test_chaos_crash_decisions_ignore_stall_draws():
    """The N-th crash-point consultation decides the same way however many
    solves were consulted for a stall in between (that number follows
    wall-clock batching), so a soak replays its crashes from its seed."""
    async def crashes(stall_draws_between):
        chaos = ServeChaos(seed=23, crash_before=0.3, solve_delay_rate=0.5)
        out = []
        for _ in range(40):
            for _ in range(stall_draws_between):
                await chaos.maybe_stall_solve()
            try:
                chaos.crash_point("pre")
            except InjectedCrash:
                out.append(True)
            else:
                out.append(False)
        return out

    pattern = run(crashes(0))
    assert any(pattern)
    assert run(crashes(3)) == pattern


def test_definitive_reject_is_latched():
    async def main():
        async with AdmissionService(make_system()) as svc:
            bad = {**JOIN, "stream": "g", "throughput": [9, 1],
                   "idempotency_key": "k"}
            r = await svc.submit(dict(bad))
            assert r["error"]["code"] == "bound_exceeded"
            again = await svc.submit(dict(bad))
            assert again["error"]["code"] == "bound_exceeded"
            assert again["replayed"] is True
    run(main())


# ---------------------------------------------------------------------------
# shedding
# ---------------------------------------------------------------------------

def test_shed_assisted_join_evicts_strictly_lower_priority():
    async def main():
        system = make_system(dens=(6000,))
        async with AdmissionService(system) as svc:
            cheap = await svc.submit({
                "op": "join", "tenant": "lo", "stream": "cheap",
                "throughput": [1, 32], "reconfigure": 16, "priority": 0})
            assert cheap["ok"]
            # big + cheap together exceed the bound; big alone fits
            big = await svc.submit({
                "op": "join", "tenant": "hi", "stream": "big",
                "throughput": [1, 24], "reconfigure": 16, "priority": 5})
            assert big["ok"] is True
            names = {s.name for s in svc.system.streams}
            assert "big" in names and "cheap" not in names
            assert [e["stream"] for e in svc.shed_log] == ["cheap"]
            assert svc.transitions[-1]["shed"] == ["cheap"]
    run(main())


def test_equal_priority_join_is_rejected_not_shed():
    async def main():
        system = make_system(dens=(6000,))
        async with AdmissionService(system) as svc:
            await svc.submit({
                "op": "join", "tenant": "lo", "stream": "cheap",
                "throughput": [1, 32], "reconfigure": 16, "priority": 5})
            big = await svc.submit({
                "op": "join", "tenant": "hi", "stream": "big",
                "throughput": [1, 24], "reconfigure": 16, "priority": 5})
            assert big["error"]["code"] == "bound_exceeded"
            assert svc.shed_log == []
    run(main())


def test_proactive_watermark_shed():
    async def main():
        system = make_system(dens=(40, 600))  # load 0.375 + 0.025
        svc = AdmissionService(system, shed_watermark=Fraction(1, 2))
        async with svc:
            r = await svc.submit({
                "op": "join", "tenant": "t", "stream": "c",
                "throughput": [1, 60], "reconfigure": 16})
            assert r["ok"]
            # committed load 0.65 crossed the 0.5 watermark: the lowest-
            # priority stream is shed in its own via="shed" transition
            assert svc.counters["sheds"] >= 1
            assert svc.load <= Fraction(1, 2)
            assert any(t["via"] == "shed" for t in svc.transitions)
            # the stream that just paid for admission is exempt
            assert "c" in {s.name for s in svc.system.streams}
    run(main())


# ---------------------------------------------------------------------------
# journal replay & simulator projection
# ---------------------------------------------------------------------------

def test_journal_replays_to_identical_fingerprint():
    async def main():
        async with AdmissionService(make_system()) as svc:
            await svc.submit({**JOIN, "stream": "a"})
            await svc.submit({**JOIN, "stream": "b", "throughput": [1, 9000]})
            await svc.submit({"op": "leave", "tenant": "t", "stream": "a"})
            final = replay_journal(svc.initial_system, svc.journal())
            assert state_fingerprint(final) == svc.fingerprint()
    run(main())


def test_tampered_journal_is_detected():
    async def main():
        async with AdmissionService(make_system()) as svc:
            await svc.submit(dict(JOIN))
            journal = svc.journal()
            journal[0]["block_sizes"]["x"] += 1
            with pytest.raises(ReplayError, match="transition 0"):
                replay_journal(svc.initial_system, journal)
    run(main())


def test_journal_projects_onto_churn_fault_plan():
    async def main():
        async with AdmissionService(make_system()) as svc:
            await svc.submit({**JOIN, "stream": "a"})
            await svc.submit({"op": "leave", "tenant": "t", "stream": "a"})
            plan = journal_to_fault_plan(svc.journal(), start_at=512,
                                         spacing=256)
            kinds = [s.kind for s in plan.specs]
            assert kinds == [STREAM_JOIN, STREAM_LEAVE]
            join_spec = plan.specs[0]
            assert join_spec.target == "a"
            assert join_spec.params["throughput"] == [1, 4096]
            assert join_spec.at == 512 and plan.specs[1].at == 768
            # the plan round-trips through its own JSON validation
            from repro.sim.faults import FaultPlan
            assert len(FaultPlan.from_json(plan.to_json())) == 2
    run(main())


def test_shutdown_drains_with_structured_rejects():
    async def main():
        async with AdmissionService(make_system()) as svc:
            down = await svc.submit({"op": "shutdown"})
            assert down["ok"] and down["draining"]
            late = await svc.submit(dict(JOIN))
            assert late["error"]["code"] == "shutting_down"
            # read-only ops still answer while draining
            st = await svc.submit({"op": "status"})
            assert st["ok"]
    run(main())
