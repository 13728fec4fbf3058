"""SWEEP: the experiment engine itself — caching, determinism, fan-out.

The engine's two load-bearing claims get measured and asserted here:

* **bit-identity** — the same sweep run serially and on the work queue
  produces byte-equal payload digests (an exact, pure Algorithm 1 makes a
  memo hit indistinguishable from a solve, so results are independent of
  worker count, scheduling and which process's memo a point met);
* **cached speedup** — replica-style sweeps (same analysis system solved
  at many points) hit the :class:`repro.exp.SolverCache` memo, which
  lives for the whole sweep in each process, cutting the Algorithm-1
  solve count by the replication factor.

The grid is sized so that solving dominates a point: systems of 1536 and
2048 streams at 99% load, where one exact Algorithm 1 solve climbs
hundreds of fixed-point steps, so every recorded timing is above 1 s.
Serial timings are CPU seconds, best of :data:`BEST_OF` interleaved cold
and cached runs, so load drifting on a shared host hits both.  The parallel
leg is wall-clock, because its work runs in worker processes, and it
includes the work queue's start cost: fresh interpreters that import
``repro``, about 0.5–0.8 s per sweep.

The run is persisted as ``BENCH_sweep_engine.json`` next to this file:
digests, timings, speedups, cache counters and the host CPU count, so a
regression in either claim is visible in the artifact diff.  Wall-clock
parallel speedup is asserted only on hosts with ≥4 CPUs — on smaller
machines the queue cannot beat the serial loop and the artifact records
why.

The artifact also carries a ``resilience`` section — kill → resume →
complete, measured: a run interrupted after its first journaled point
and resumed from the result store, and a chaos run whose work-queue
worker is SIGKILLed mid-point, must both land on the undisturbed serial
digest.
"""

import os
import tempfile
import time

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

#: two distinct systems × four replicas each: a serial run's memo solves
#: each system once and answers its other three replicas — 6 hits of 8
AXES = {"streams": [1536, 2048], "load_pct": [99], "replica": [0, 1, 2, 3]}
#: serial timing rounds; the min damps scheduler/GC noise in the ratio
BEST_OF = 5

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACT = os.path.join(HERE, "BENCH_sweep_engine.json")


def make_sweep() -> Sweep:
    return Sweep.grid("sweep_engine", scalability_blocksizes, axes=AXES)


def cold_and_cached(sweep):
    """Best-of-:data:`BEST_OF` CPU seconds and results of a cold and a
    cached serial run, interleaved: ``(cold_s, cold, cached_s, cached)``."""
    best = {False: float("inf"), True: float("inf")}
    last = {}
    for _ in range(BEST_OF):
        for cache in (False, True):
            started = time.process_time()
            last[cache] = run_sweep(sweep, workers=1, cache=cache)
            best[cache] = min(best[cache], time.process_time() - started)
    return best[False], last[False], best[True], last[True]


def parallel_workers() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def test_sweep_cache_hit_rate_and_speedup(benchmark):
    sweep = make_sweep()
    cold_s, cold, cached_s, cached = benchmark.pedantic(
        lambda: cold_and_cached(sweep), rounds=1
    )
    banner("SWEEP solver-cache speedup (serial, 2 systems x 4 replicas)")
    stats = cached.cache
    speedup = cold_s / cached_s
    print(f"cold serial: {cold_s:.2f} s CPU, cached serial: {cached_s:.2f} s "
          f"CPU ({speedup:.2f}x, best of {BEST_OF})")
    print(f"cache: {stats['hits']}/{stats['lookups']} hits "
          f"({stats['hit_rate']:.0%})")
    # caching must not change results...
    assert cached.digest() == cold.digest()
    # ...and must actually reuse: 6 of 8 lookups are memo hits
    assert stats["hits"] == 6 and stats["hit_rate"] == 0.75
    # dodging 6 of 8 Algorithm-1 solves buys at least 2x end to end
    assert speedup >= 2.0, f"cache speedup only {speedup:.2f}x"


def test_sweep_serial_parallel_bit_identical(benchmark):
    sweep = make_sweep()
    serial = run_sweep(sweep, workers=1)
    parallel = benchmark.pedantic(
        lambda: run_sweep(sweep, workers=parallel_workers()), rounds=1
    )
    banner("SWEEP serial == parallel bit-identity")
    print(f"serial   {serial.digest()}")
    print(f"parallel {parallel.digest()}  ({parallel.workers} workers, "
          f"{parallel.mode})")
    assert parallel.mode == "work-queue"
    assert parallel.digest() == serial.digest()
    assert [o.id for o in parallel.outcomes] == [o.id for o in serial.outcomes]
    assert parallel.payload() == serial.payload()


def _resilience_scenario(sweep, reference_digest):
    """kill → resume → complete: the crash-tolerance claim, measured.

    Two disturbances against the same sweep, both required to land on the
    reference digest: (a) an interrupt after the first journaled point
    followed by a ``--resume`` run, and (b) a chaos run on the work-queue
    backend whose first point's worker is SIGKILLed mid-flight.
    """
    with tempfile.TemporaryDirectory() as store:
        try:
            run_sweep(sweep, workers=1, store=store, interrupt_after=1)
            raise AssertionError("interrupt_after=1 did not interrupt")
        except SweepInterrupted as err:
            journaled = err.completed_points
        resumed = run_sweep(sweep, workers=1, store=store, resume=True)
    plan = ChaosPlan(seed=13, events=(ChaosEvent(point=0, action="kill"),))
    chaotic, monkey = run_chaos_sweep(sweep, plan, workers=2)
    return {
        "interrupt_resume": {
            "journaled_points_at_kill": journaled,
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
        parallel = run_sweep(sweep, workers=parallel_workers())
        return (*cold_and_cached(sweep), parallel)

    cold_s, cold, cached_s, cached, parallel = benchmark.pedantic(
        full_run, rounds=1
    )
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
            # serial legs: CPU seconds, best of BEST_OF
            "cold_serial": round(cold_s, 3),
            "cached_serial": round(cached_s, 3),
            "speedup_cache": round(cold_s / cached_s, 2),
            # parallel leg: wall seconds, cold serial run vs the work queue
            "cold_serial_wall": round(cold.elapsed_s, 3),
            "parallel": round(parallel.elapsed_s, 3),
            "speedup_parallel": round(cold.elapsed_s / parallel.elapsed_s, 2),
        },
        "timing_method": {"serial": "process_time", "best_of": BEST_OF,
                          "parallel": "perf_counter"},
        "solver_cache": cached.cache,
        "speedup_gate": speedup_gate,
        "resilience": resilience,
        "environment": {
            "cpu_count": os.cpu_count(),
            "parallel_workers": parallel.workers,
            # what actually ran: on a 1-CPU host a "parallel" run is a
            # worker pool multiplexed onto one core, and the attribution
            # below keeps the artifact from presenting it as a speedup
            "parallel_effective_workers": parallel.effective_workers,
            "parallel_mode": parallel.mode,
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
