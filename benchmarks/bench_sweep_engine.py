"""SWEEP: the experiment engine itself — caching, determinism, fan-out.

The engine's two load-bearing claims get measured and asserted here:

* **bit-identity** — the same sweep run serially and on a process pool
  produces byte-equal payload digests (chunk-scoped solver caches + fixed
  chunk size make results independent of worker count and scheduling);
* **cached speedup** — replica-style sweeps (same analysis system solved
  at many points) hit the :class:`repro.exp.SolverCache` memo, cutting the
  Algorithm-1 solve count by the replication factor.

The run is persisted as ``BENCH_sweep_engine.json`` next to this file:
digests, timings, speedups, cache counters and the host CPU count, so a
regression in either claim is visible in the artifact diff.  Wall-clock
parallel speedup is asserted only on hosts with ≥4 CPUs — on smaller
machines the pool cannot beat the serial loop and the artifact records
why.

The artifact also carries a ``resilience`` section — kill → resume →
complete, measured: a run interrupted after its first journaled chunk
and resumed from the result store, and a chaos run whose work-queue
worker is SIGKILLed mid-chunk, must both land on the undisturbed serial
digest.
"""

import os
import tempfile

from repro.core.config_io import dump_report, load_report
from repro.core import make_report
from repro.exp import (
    ChaosEvent,
    ChaosPlan,
    Sweep,
    SweepInterrupted,
    run_chaos_sweep,
    run_sweep,
)
from repro.exp.tasks import scalability_blocksizes

from conftest import banner

#: two distinct systems × four replicas each; grid order is streams-major,
#: so each engine chunk (size 4) sees one system — 3 memo hits per chunk.
AXES = {"streams": [12, 16], "replica": [0, 1, 2, 3]}

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACT = os.path.join(HERE, "BENCH_sweep_engine.json")


def make_sweep() -> Sweep:
    return Sweep.grid("sweep_engine", scalability_blocksizes, axes=AXES)


def test_sweep_cache_hit_rate_and_speedup(benchmark):
    sweep = make_sweep()
    cold = run_sweep(sweep, workers=1, cache=False)
    cached = benchmark(lambda: run_sweep(sweep, workers=1))
    banner("SWEEP solver-cache speedup (serial, 2 systems x 4 replicas)")
    stats = cached.cache
    speedup = cold.elapsed_s / cached.elapsed_s
    print(f"cold serial: {cold.elapsed_s * 1e3:.1f} ms, "
          f"cached serial: {cached.elapsed_s * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    print(f"cache: {stats['hits']}/{stats['lookups']} hits "
          f"({stats['hit_rate']:.0%})")
    # caching must not change results...
    assert cached.digest() == cold.digest()
    # ...and must actually reuse: 6 of 8 lookups are memo hits
    assert stats["hits"] == 6 and stats["hit_rate"] == 0.75
    # dodging 6 of 8 ILP solves buys at least 2x end to end
    assert speedup >= 2.0, f"cache speedup only {speedup:.2f}x"


def test_sweep_serial_parallel_bit_identical(benchmark):
    sweep = make_sweep()
    serial = run_sweep(sweep, workers=1)
    workers = min(4, os.cpu_count() or 1)
    parallel = benchmark.pedantic(
        lambda: run_sweep(sweep, workers=max(2, workers)), rounds=1
    )
    banner("SWEEP serial == parallel bit-identity")
    print(f"serial   {serial.digest()}")
    print(f"parallel {parallel.digest()}  ({parallel.workers} workers)")
    assert parallel.digest() == serial.digest()
    assert [o.id for o in parallel.outcomes] == [o.id for o in serial.outcomes]
    assert parallel.payload() == serial.payload()


def _resilience_scenario(sweep, reference_digest):
    """kill → resume → complete: the crash-tolerance claim, measured.

    Two disturbances against the same sweep, both required to land on the
    reference digest: (a) an interrupt after the first journaled chunk
    followed by a ``--resume`` run, and (b) a chaos run on the work-queue
    backend whose first chunk's worker is SIGKILLed mid-flight.
    """
    with tempfile.TemporaryDirectory() as store:
        try:
            run_sweep(sweep, workers=1, store=store, interrupt_after=1)
            raise AssertionError("interrupt_after=1 did not interrupt")
        except SweepInterrupted as err:
            journaled = err.completed_chunks
        resumed = run_sweep(sweep, workers=1, store=store, resume=True)
    plan = ChaosPlan(seed=13, events=(ChaosEvent(chunk=0, action="kill"),))
    chaotic, monkey = run_chaos_sweep(sweep, plan, workers=2)
    return {
        "interrupt_resume": {
            "journaled_chunks_at_kill": journaled,
            "resumed_chunks": resumed.resumed_chunks,
            "store_point_hits": resumed.store_hits,
            "digest": resumed.digest(),
            "digest_matches_serial": resumed.digest() == reference_digest,
        },
        "chaos_kill": {
            "plan": plan.to_dict(),
            "strikes": len(monkey.log),
            "worker_restarts": chaotic.worker_restarts,
            "quarantined": chaotic.quarantined,
            "digest": chaotic.digest(),
            "digest_matches_serial": chaotic.digest() == reference_digest,
        },
    }


def test_sweep_engine_artifact(benchmark):
    """One full comparison run, persisted as BENCH_sweep_engine.json."""
    sweep = make_sweep()

    def full_run():
        cold = run_sweep(sweep, workers=1, cache=False)
        cached = run_sweep(sweep, workers=1)
        workers = min(4, os.cpu_count() or 1)
        parallel = run_sweep(sweep, workers=max(2, workers))
        return cold, cached, parallel

    cold, cached, parallel = benchmark.pedantic(full_run, rounds=1)
    identical = (cold.digest() == cached.digest() == parallel.digest())
    resilience = _resilience_scenario(sweep, cached.digest())
    # genuine wall-clock parallel win is only physical with enough cores;
    # the artifact records whether the gate was enforced or skipped so a
    # green run on a 2-CPU host cannot be mistaken for a passed speedup
    gate_enforced = (os.cpu_count() or 1) >= 4 and parallel.workers >= 4
    speedup_gate = {
        "status": "enforced" if gate_enforced else "skipped",
        "cpu_count": os.cpu_count(),
        "parallel_workers": parallel.workers,
        "threshold": 3.0,
        "observed": round(cold.elapsed_s / parallel.elapsed_s, 2),
    }
    report = make_report("sweep", {
        "name": "sweep_engine",
        "axes": AXES,
        "points": len(sweep),
        "bit_identical": identical,
        "digests": {
            "cold_serial": cold.digest(),
            "cached_serial": cached.digest(),
            "parallel": parallel.digest(),
        },
        "timing_s": {
            "cold_serial": round(cold.elapsed_s, 4),
            "cached_serial": round(cached.elapsed_s, 4),
            "parallel": round(parallel.elapsed_s, 4),
            "speedup_cache": round(cold.elapsed_s / cached.elapsed_s, 2),
            "speedup_parallel": round(cold.elapsed_s / parallel.elapsed_s, 2),
        },
        "solver_cache": cached.cache,
        "speedup_gate": speedup_gate,
        "resilience": resilience,
        "environment": {
            "cpu_count": os.cpu_count(),
            "parallel_workers": parallel.workers,
            # what actually ran: on a 1-CPU host a "parallel" run is a
            # process pool multiplexed onto one core, and the attribution
            # below keeps the artifact from presenting it as a speedup
            "parallel_effective_workers": parallel.effective_workers,
            "parallel_mode": parallel.mode,
            "chunk_count": parallel.chunk_count,
            "chunk_size": parallel.chunk_size,
        },
    })
    with open(ARTIFACT, "w") as fh:
        fh.write(dump_report(report) + "\n")
    banner("SWEEP engine artifact")
    print(f"wrote {ARTIFACT}")
    print(f"speedup: cache {report['timing_s']['speedup_cache']}x, "
          f"parallel {report['timing_s']['speedup_parallel']}x "
          f"on {os.cpu_count()} CPU(s)")
    resume_ok = resilience["interrupt_resume"]["digest_matches_serial"]
    print(f"resilience: resume matched={resume_ok}, "
          f"chaos matched={resilience['chaos_kill']['digest_matches_serial']} "
          f"({resilience['chaos_kill']['strikes']} strike(s))")
    assert identical
    assert resilience["interrupt_resume"]["digest_matches_serial"]
    assert resilience["chaos_kill"]["digest_matches_serial"]
    assert resilience["chaos_kill"]["strikes"] >= 1
    assert resilience["chaos_kill"]["quarantined"] == []
    # the artifact round-trips through the versioned report schema
    assert load_report(open(ARTIFACT).read())["kind"] == "sweep"
    print(f"parallel speedup gate: {speedup_gate['status']} "
          f"(cpu_count={speedup_gate['cpu_count']}, "
          f"observed {speedup_gate['observed']}x)")
    if gate_enforced:
        speedup = cold.elapsed_s / parallel.elapsed_s
        assert speedup >= 3.0, f"parallel speedup only {speedup:.2f}x"
