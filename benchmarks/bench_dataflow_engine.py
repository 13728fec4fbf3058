"""DFENG: macro benchmark of the self-timed dataflow engine (DESIGN.md §11).

``verify_system`` on the paper's PAL system (block sizes 10136/1267 at the
0.127% rate margin that reproduces them) runs every stream's Fig. 5 CSDF
and Fig. 7 SDF models self-timed — about 7·10**5 firings, most of them in
the η-phase gateway actors.  This bench runs it on the production engine
and on the frozen reference engine (``tests/refdataflow.py``) in one
process and asserts

* the two ``VerificationReport`` objects are **identical** (``==`` and
  ``repr``),
* CPU time improves by at least :data:`MIN_SPEEDUP` (full mode),
* the production engine processes fewer than one completion instant per
  :data:`MIN_FIRINGS_PER_INSTANT` firings over every run ``verify_system``
  makes, the ``execute()`` runs and the state-space loop alike: they jump
  the periods their executions repeat (DESIGN.md §11, "Periodic jumps").

Full mode verifies all four streams, best-of-3 per engine, and persists
the comparison as ``BENCH_dataflow_engine.json`` next to this file, with
the firings and the instants processed one by one, in all and in the
``execute()`` runs.  It also records what verification holds: the
tracemalloc peak of ``verify_system`` on PAL, in an untimed pass of its
own, and on the production engine only (the reference needs minutes) the
CPU time and peak RSS of ``verify_system`` on the near-full two-stream
system (:func:`near_full_system`, η = 287,921), measured in a fresh
interpreter.  Setting
``DATAFLOW_BENCH_SMOKE=1`` (CI) verifies only the two stage-2 streams
(η = 1267) once per engine with a lenient speedup gate, keeping the
identity and instant assertions strict.  Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/bench_dataflow_engine.py -s``.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import ExitStack
from fractions import Fraction
from typing import Mapping
from unittest import mock

from repro.api import Scenario
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    compute_block_sizes,
    csdf_builder,
    sdf_abstraction,
    verification,
)
from repro.core.config_io import dump_report, make_report
from repro.dataflow import SelfTimedEngine, simulation, statespace

from conftest import banner

HERE = os.path.dirname(os.path.abspath(__file__))
# the reference engine is a test oracle under tests/, never shipped in src/
sys.path.insert(0, os.path.dirname(HERE))
from tests import refdataflow  # noqa: E402

#: CI smoke mode: stage-2 streams only, no artifact, lenient speedup gate
SMOKE = os.environ.get("DATAFLOW_BENCH_SMOKE") == "1"
MIN_SPEEDUP = 1.5 if SMOKE else 3.5
#: timing runs per engine; the min damps scheduler/GC noise in the ratio
BEST_OF = 1 if SMOKE else 3
#: firings per instant processed, over every run: below it, periods are not jumped
MIN_FIRINGS_PER_INSTANT = 100
ARTIFACT = os.path.join(HERE, "BENCH_dataflow_engine.json")
#: the paper's block sizes, at the rate margin where Algorithm 1 reproduces them
PAPER_PAL = "scenario://pal_decoder?eta_stage1=10136&eta_stage2=1267&margin_ppm=1270"


def near_full_system() -> GatewaySystem:
    """Two streams at load 0.99997 (ε = 15, one ρ = 1 accelerator, R = 100),
    sized by Algorithm 1 to η = 287,921 each."""
    mu = Fraction(3_333_233, 100_000_000)
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=tuple(StreamSpec(name, mu, 100) for name in ("x", "y")),
        entry_copy=15,
        exit_copy=1,
    )
    return system.with_block_sizes(compute_block_sizes(system).block_sizes)


def peak_rss_mb() -> float:
    """This interpreter's peak resident set size (``VmHWM``, Linux), in MB.

    Not ``ru_maxrss``: in a spawned child that also counts the peak of the
    process that spawned it."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def measure_near_full() -> dict:
    """CPU time and peak RSS of ``verify_system`` on :func:`near_full_system`,
    in this interpreter (run it in a fresh one: ``python
    benchmarks/bench_dataflow_engine.py``); ``rss_before_mb`` is the peak
    before verification, the system solved."""
    system = near_full_system()
    rss_mb = peak_rss_mb()
    started = time.process_time()
    report = verification.verify_system(system)
    cpu_s = time.process_time() - started
    return {"block_sizes": {s.name: s.block_size for s in system.streams},
            "ok": report.ok, "cpu_s": cpu_s, "rss_before_mb": rss_mb,
            "peak_rss_mb": peak_rss_mb()}


def reference_execute(graph, record=True, **kwargs):
    """The reference engine's ``execute``, read as verification reads a run:
    its full records cut to the (actor, phase) pairs ``record`` keeps,
    firings of one phase, and production times as ticks on scale 1."""
    res = refdataflow.execute(graph, record=record is not False, **kwargs)
    if not isinstance(record, bool):
        if not isinstance(record, Mapping):  # a name keeps every phase
            record = {a: range(graph.actor(a).phases) for a in record}
        res.firings = [f for f in res.firings if f.phase in record.get(f.actor, ())]
    res.scale = 1
    res.production_ticks = res.production_times
    res.firings_of = lambda actor, phase=None: [
        f for f in res.firings if f.actor == actor and phase in (None, f.phase)]
    return res


def verify(system, streams, reference=False):
    """Verify ``streams``; returns (cpu_s, results) on the chosen engine."""
    with ExitStack() as stack:
        if reference:
            for module in (verification, csdf_builder):
                stack.enter_context(mock.patch.object(module, "execute", reference_execute))
            stack.enter_context(mock.patch.object(
                sdf_abstraction, "steady_state_throughput",
                refdataflow.steady_state_throughput))
        started = time.process_time()
        if len(streams) == len(system.streams):
            results = verification.verify_system(system)
        else:
            results = [verification.verify_stream(system, name) for name in streams]
        return time.process_time() - started, results


def count_work(system, streams):
    """Firings and instants the production engine processes for ``streams``
    (untimed pass): ``{"all": ..., "execute": ...}``, each ``(firings,
    instants)``, over every engine and over the ``execute()`` runs only."""
    engines = {"execute": [], "statespace": []}

    def counted(kind):
        class Counted(SelfTimedEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines[kind].append(self)
        return Counted

    with mock.patch.object(simulation, "SelfTimedEngine", counted("execute")), \
            mock.patch.object(statespace, "SelfTimedEngine", counted("statespace")):
        verify(system, streams)

    def work(runs):
        return (sum(sum(e.completions.values()) for e in runs),
                sum(e.instants for e in runs))

    return {"all": work(engines["execute"] + engines["statespace"]),
            "execute": work(engines["execute"])}


def test_dataflow_engine_verify_pal_vs_reference():
    system = Scenario.from_registry(PAPER_PAL).system
    streams = [s.name for s in system.streams if not SMOKE or s.name.endswith(".s2")]

    new_s, new = verify(system, streams)
    ref_s, ref = verify(system, streams, reference=True)
    for _ in range(BEST_OF - 1):
        new_s = min(new_s, verify(system, streams)[0])
        ref_s = min(ref_s, verify(system, streams, reference=True)[0])
    assert new == ref, "verification differs from the reference engine"
    assert repr(new) == repr(ref)
    work = count_work(system, streams)
    firings, instants = work["all"]
    run_firings, run_instants = work["execute"]
    tracemalloc.start()
    verify(system, streams)
    held_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    speedup = ref_s / new_s
    banner(f"DFENG: verify {len(streams)} PAL stream(s) ({firings:.2e} firings)")
    print(f"reference engine: {ref_s:.3f}s CPU ({firings / ref_s / 1e3:.0f}k firings/s)")
    print(f"tick engine:      {new_s:.3f}s CPU ({firings / new_s / 1e3:.0f}k firings/s)")
    print(f"instants processed: {instants} ({run_instants} in execute() runs "
          f"of {run_firings} firings)")
    print(f"speedup {speedup:.2f}x on {os.cpu_count()} CPU(s), reports identical")
    print(f"tracemalloc peak of verification: {held_mb:.2f} MB")
    assert speedup >= MIN_SPEEDUP, (
        f"verify CPU time improved only {speedup:.2f}x "
        f"(gate {MIN_SPEEDUP}x, smoke={SMOKE})"
    )
    assert instants * MIN_FIRINGS_PER_INSTANT < firings, (
        f"verification processed {instants} instants for {firings} firings: "
        "periodic jumps are not happening"
    )

    if not SMOKE:
        child = subprocess.run([sys.executable, __file__], capture_output=True,
                               text=True, check=True)
        near_full = json.loads(child.stdout)
        assert near_full["ok"], "the near-full system fails verification"
        print(f"near-full system (η = 287,921): verify_system {near_full['cpu_s']:.2f}s "
              f"CPU, peak RSS {near_full['peak_rss_mb']:.1f} MB "
              f"({near_full['rss_before_mb']:.1f} MB before)")
        report = make_report("bench", {
            "name": "dataflow_engine",
            "workload": {
                "call": "verify_system",
                "system": PAPER_PAL,
                "block_sizes": {s.name: s.block_size for s in system.streams},
                "firings": firings,
                "instants": instants,
                "execute_firings": run_firings,
                "execute_instants": run_instants,
                "tracemalloc_peak_mb": held_mb,
            },
            "before": {"engine": "frozen reference (tests/refdataflow.py)",
                       "cpu_s": ref_s, "firings_per_s": firings / ref_s},
            "after": {"engine": "integer-tick dirty-set engine with periodic jumps "
                                "(DESIGN.md §11)",
                      "cpu_s": new_s, "firings_per_s": firings / new_s},
            "near_full": {"engine": "integer-tick dirty-set engine with periodic "
                                    "jumps (DESIGN.md §11)", **near_full},
            "timing": {"clock": "process_time", "best_of": BEST_OF},
            "cpu_count": os.cpu_count(),
            "speedup": speedup,
            "report_identical": True,
        })
        with open(ARTIFACT, "w") as fh:
            fh.write(dump_report(report) + "\n")


if __name__ == "__main__":
    print(json.dumps(measure_near_full()))
