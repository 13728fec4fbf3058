"""KERN: microbenchmarks of the discrete-event kernel hot path.

Every architecture result in this repo is produced by the event loop in
:mod:`repro.sim.kernel`; the sweep engine multiplies how often it runs.
These benches pin down the loop's per-event cost on three workloads —
a timeout storm (pure scheduling), same-cycle bursts (the bucket fast
path) and a full gateway simulation (the loop under its real instruction
mix) — and assert the optimisations change no observable behaviour
(final clock, event order, metrics).

The macro benchmark (``test_kernel_macro_sparse_wheel_vs_heap``) is the
gate for the calendar-queue + temporal-decoupling rewrite: it drives a
long-horizon, sparse-in-time periodic workload (the block-periodic shape
the shared-accelerator MPSoC produces: every stream's timers align on
block boundaries) through both the production kernel and the frozen
heap-only reference (``tests/refkernel.py``) and asserts

* the observable traces are **bit-identical**,
* the cycle-skip path engages (nonzero ``skipped_cycles``),
* events per CPU second improve by at least :data:`MACRO_MIN_SPEEDUP`
  (full mode).

Full mode simulates ``10**8`` cycles, best-of-3 per kernel, and persists
the before/after comparison as ``BENCH_kernel_wheel.json`` next to this
file, with the clock, the best-of count and the host's CPU count.  Setting
``KERNEL_BENCH_SMOKE=1`` (CI) shrinks the horizon and runs each kernel
once, only sanity-checking the speedup, keeping the identity and
cycle-skip assertions strict.
"""

import os
import sys
import time
from fractions import Fraction

from repro.core.config_io import dump_report, make_report
from repro.sim import Simulator, kernel

from conftest import banner

HERE = os.path.dirname(os.path.abspath(__file__))
# the reference kernel is a test oracle under tests/, never shipped in src/
sys.path.insert(0, os.path.dirname(HERE))
from tests import refkernel  # noqa: E402

PROCS = 50
TICKS = 200

#: CI smoke mode: small horizon, no artifact, lenient speedup gate
SMOKE = os.environ.get("KERNEL_BENCH_SMOKE") == "1"

MACRO_HORIZON = 1_000_000 if SMOKE else 100_000_000
MACRO_PROCS = 256
#: harmonic block periods (cycles): sparse in time, bursty per cycle
MACRO_PERIODS = (6_400, 12_800, 25_600, 51_200)
#: required events/sec improvement of the calendar queue over the heap
MACRO_MIN_SPEEDUP = 1.2 if SMOKE else 2.0
#: timing runs per kernel; the min damps scheduler/GC noise in the ratio
BEST_OF = 1 if SMOKE else 3

ARTIFACT = os.path.join(HERE, "BENCH_kernel_wheel.json")


def timeout_storm(procs: int = PROCS, ticks: int = TICKS) -> int:
    """`procs` generators each sleeping `ticks` staggered timeouts."""
    sim = Simulator()

    def ticker(offset):
        for i in range(ticks):
            yield sim.timeout(1 + (offset + i) % 3)

    for p in range(procs):
        sim.process(ticker(p), name=f"t{p}")
    sim.run()
    return sim.now


def same_cycle_bursts(rounds: int = 300, width: int = 40) -> int:
    """`width` events per cycle for `rounds` cycles: the batched-pop path."""
    sim = Simulator()

    def burster():
        for _ in range(rounds):
            yield sim.timeout(1)

    for _ in range(width):
        sim.process(burster())
    sim.run()
    return sim.now


def bounded_run_until(procs: int = PROCS, ticks: int = TICKS) -> bool:
    """The harness driver loop: run_until a completion event with a cap."""
    sim = Simulator()

    def ticker():
        for _ in range(ticks):
            yield sim.timeout(2)

    last = [sim.process(ticker(), name=f"t{p}") for p in range(procs)][-1]
    return sim.run_until(last, limit=10 * ticks)


def simulate_small_system():
    from repro.arch import simulate_system
    from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec

    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=(
            StreamSpec("s0", Fraction(1, 100_000), 40, block_size=8),
            StreamSpec("s1", Fraction(1, 200_000), 40, block_size=4),
        ),
        entry_copy=6,
        exit_copy=1,
    )
    return simulate_system(system, blocks=3, trace=False)


def test_kernel_timeout_storm(benchmark):
    now = benchmark(timeout_storm)
    banner("KERN timeout storm (50 procs x 200 timeouts)")
    print(f"final clock: {now} cycles, {PROCS * TICKS} events fired")
    assert now == max(
        sum(1 + (p + i) % 3 for i in range(TICKS)) for p in range(PROCS)
    )


def test_kernel_same_cycle_bursts(benchmark):
    now = benchmark(same_cycle_bursts)
    banner("KERN same-cycle bursts (40 events/cycle x 300 cycles)")
    print(f"final clock: {now} cycles")
    assert now == 300


def test_kernel_bounded_run_until(benchmark):
    finished = benchmark(bounded_run_until)
    assert finished


def test_kernel_under_real_simulation(benchmark):
    run = benchmark(simulate_small_system)
    banner("KERN full gateway simulation (2 streams x 3 blocks)")
    print(f"horizon: {run.horizon} cycles")
    metrics = run.metrics()
    assert all(m.blocks_done == 3 for m in metrics.values())


# -- long-horizon macro benchmark: calendar queue vs frozen heap kernel ----

def sparse_periodic_storm(kernel_module, horizon=MACRO_HORIZON):
    """Block-periodic timers over a long, mostly idle horizon.

    ``MACRO_PROCS`` processes sleep on harmonic block periods, so events
    cluster on sparse, shared cycles — the traffic shape of the paper's
    architecture, where every stream's activity aligns on block
    boundaries.  Returns (cpu_s, events, trace, skipped_cycles); the
    trace encodes the full observable dispatch order as ``now * 1024 +
    pid`` integers, so equality between two kernels is bit-identity of
    event ordering.
    """
    sim = kernel_module.Simulator()
    trace = []
    record = trace.append

    def ticker(pid, period):
        while sim.now + period <= horizon:
            yield sim.timeout(period)
            record(sim.now * 1024 + pid)

    for pid in range(MACRO_PROCS):
        period = MACRO_PERIODS[pid % len(MACRO_PERIODS)]
        sim.process(ticker(pid, period), name=f"p{pid}")
    started = time.process_time()
    sim.run()
    elapsed = time.process_time() - started
    return elapsed, len(trace), trace, getattr(sim, "skipped_cycles", 0)


def test_kernel_macro_sparse_wheel_vs_heap():
    ref_s, ref_n, ref_trace, _ = min(
        (sparse_periodic_storm(refkernel) for _ in range(BEST_OF)), key=lambda r: r[0]
    )
    new_s, new_n, new_trace, skipped = min(
        (sparse_periodic_storm(kernel) for _ in range(BEST_OF)), key=lambda r: r[0]
    )
    ref_eps = ref_n / ref_s
    new_eps = new_n / new_s
    speedup = new_eps / ref_eps
    banner(f"KERN macro: sparse periodic storm ({MACRO_HORIZON:.0e} cycles, "
           f"{MACRO_PROCS} procs)")
    print(f"heap reference: {ref_n} events in {ref_s:.3f}s CPU "
          f"({ref_eps / 1e3:.0f}k ev/s)")
    print(f"calendar queue: {new_n} events in {new_s:.3f}s CPU "
          f"({new_eps / 1e3:.0f}k ev/s)")
    print(f"speedup {speedup:.2f}x on {os.cpu_count()} CPU(s), {skipped} cycles "
          f"skipped ({skipped / MACRO_HORIZON:.1%} of horizon)")

    # observable behaviour is bit-identical: same events, same order
    assert new_trace == ref_trace, "calendar queue changed the dispatch order"
    # temporal decoupling engages: almost the whole horizon is jumped over
    assert skipped > 0.9 * MACRO_HORIZON
    assert speedup >= MACRO_MIN_SPEEDUP, (
        f"events/sec improved only {speedup:.2f}x "
        f"(gate {MACRO_MIN_SPEEDUP}x, smoke={SMOKE})"
    )

    if not SMOKE:
        report = make_report("bench", {
            "name": "kernel_wheel",
            "workload": {
                "horizon_cycles": MACRO_HORIZON,
                "processes": MACRO_PROCS,
                "periods": list(MACRO_PERIODS),
                "events": new_n,
            },
            "before": {"kernel": "heap (tests/refkernel.py)",
                       "cpu_s": ref_s, "events_per_s": ref_eps},
            "after": {"kernel": "calendar queue (repro.sim.kernel)",
                      "cpu_s": new_s, "events_per_s": new_eps,
                      "skipped_cycles": skipped},
            "timing": {"clock": "process_time", "best_of": BEST_OF},
            "cpu_count": os.cpu_count(),
            "speedup": speedup,
            "trace_bit_identical": True,
        })
        with open(ARTIFACT, "w") as fh:
            fh.write(dump_report(report) + "\n")
