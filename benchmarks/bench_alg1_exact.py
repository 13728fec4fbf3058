"""ALG1X: the exact Algorithm-1 solver against the ILP oracle (DESIGN.md §12).

:func:`repro.core.compute_block_sizes` solves Algorithm 1 in integers, as
the least fixed point of ``T ← Σ_s need_s(T)``; the paper's ILP, solved by
SciPy/HiGHS, is kept as a test oracle (``tests/refilp``).  This bench
solves four workloads with both solvers and asserts, for every system,

* the exact answer is feasible in exact ``Fraction`` arithmetic,
* it is componentwise ≤ every HiGHS answer that is exactly feasible; a
  larger HiGHS total is a non-minimal answer, which is counted and
  re-solved with the branch-and-bound oracle, whose answer must equal the
  exact one,
* the exact solver's CPU time on the random set beats HiGHS by at least
  :data:`MIN_SPEEDUP`,

and that 1024 streams at 90% load solve in at most
:data:`SCALE_LIMIT_S` CPU seconds.

Workloads: the PAL system at the 1270 ppm margin that reproduces the
paper's block sizes, ``many_streams_system(32)``, :data:`RANDOM_SYSTEMS`
random systems (``random.Random(0)``, 1-12 streams, load 0.30-0.98) each
solved in both ``c1_mode`` forms, and the candidate systems of a
24-stream admission churn sequence over ``examples/configs/two_radios.json``
(the ``repro serve`` request mix: joins to 22 tenants, then joins and
leaves at 22 ± 2).  Full mode times each workload best-of-3 per solver and
persists ``BENCH_alg1_exact.json`` next to this file.
``ALG1_BENCH_SMOKE=1`` (CI) runs 50 random systems and a short churn once
per solver with a lenient speedup gate; the exactness checks stay strict.
Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/bench_alg1_exact.py -s``.
"""

import os
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

from repro.api import Scenario
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    compute_block_sizes,
    load_system,
    sharing_load,
)
from repro.core.config_io import dump_report, make_report
from repro.exp.tasks import many_streams_system

from conftest import banner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the ILP oracle is a test module under tests/, never shipped in src/
sys.path.insert(0, ROOT)
from tests.refilp import ilp_block_sizes  # noqa: E402

#: CI smoke mode: a smaller random set, one timing pass, lenient gate
SMOKE = os.environ.get("ALG1_BENCH_SMOKE") == "1"
MIN_SPEEDUP = 5.0 if SMOKE else 20.0
BEST_OF = 1 if SMOKE else 3
RANDOM_SYSTEMS = 50 if SMOKE else 400
CHURN_STEPS = 20 if SMOKE else 120
#: CPU-second limit for 1024 streams at 90% load
SCALE_LIMIT_S = 0.2
ARTIFACT = os.path.join(HERE, "BENCH_alg1_exact.json")
PAPER_PAL = "scenario://pal_decoder?eta_stage1=0&eta_stage2=0&margin_ppm=1270"


def random_systems(count: int, seed: int = 0) -> list[GatewaySystem]:
    """Random rational rates scaled to a load drawn from 0.30-0.98."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        rhos = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        eps, delta = rng.randint(1, 16), rng.randint(1, 4)
        raw = [Fraction(rng.randint(1, 50_000), rng.randint(100_000, 1_000_000))
               for _ in range(n)]
        scale = Fraction(rng.randint(30, 98), 100) / (max(eps, delta, *rhos) * sum(raw))
        out.append(GatewaySystem(
            accelerators=tuple(AcceleratorSpec(f"a{i}", r) for i, r in enumerate(rhos)),
            streams=tuple(StreamSpec(f"s{i}", mu * scale, rng.randint(0, 5000))
                          for i, mu in enumerate(raw)),
            entry_copy=eps,
            exit_copy=delta,
        ))
    return out


def churn_systems(steps: int, target: int = 22, seed: int = 0) -> list[GatewaySystem]:
    """Candidate systems of an admission churn sequence, one per request."""
    with open(os.path.join(ROOT, "examples", "configs", "two_radios.json")) as fh:
        baseline = load_system(fh.read())
    rng = random.Random(seed)
    tenants: list[StreamSpec] = []
    out = []
    for k in range(steps):
        if len(tenants) < target or (len(tenants) < target + 2 and rng.random() < 0.5):
            tenants.append(StreamSpec(f"t{k}", Fraction(1, rng.randint(1200, 3000)),
                                      rng.randrange(16, 401, 8)))
        else:
            tenants.pop(rng.randrange(len(tenants)))
        out.append(replace(baseline, streams=baseline.streams + tuple(tenants)))
    return out


def feasible(system, etas, c1_mode):
    """Every Algorithm-1 constraint on ``etas``, in exact arithmetic."""
    r_sum = sum(s.reconfigure for s in system.streams)
    round_ = sum(etas.values()) + system.flush_stages * len(etas)
    return all(
        etas[s.name] >= max(1, s.throughput * (
            (r_sum if c1_mode == "sum" else s.reconfigure) + system.c0 * round_))
        for s in system.streams)


def best_cpu(solve, jobs):
    """Best-of-:data:`BEST_OF` CPU seconds of ``solve`` over ``jobs``, and
    the answers of the last pass."""
    best = None
    for _ in range(BEST_OF):
        started = time.process_time()
        answers = [solve(system, c1_mode) for system, c1_mode in jobs]
        elapsed = time.process_time() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, answers


def compare(name, jobs):
    """Solve ``jobs`` with both solvers; check and summarise the answers."""
    exact_s, exact = best_cpu(
        lambda s, m: compute_block_sizes(s, c1_mode=m).block_sizes, jobs)
    ilp_s, ilp = best_cpu(
        lambda s, m: ilp_block_sizes(s, backend="scipy", c1_mode=m), jobs)
    agree = non_minimal = infeasible = 0
    bnb_agrees = []
    for (system, c1_mode), mine, theirs in zip(jobs, exact, ilp):
        assert feasible(system, mine, c1_mode), (name, system)
        if theirs is None or not feasible(system, theirs, c1_mode):
            infeasible += 1
            continue
        assert all(mine[k] <= theirs[k] for k in mine), (name, mine, theirs)
        if sum(theirs.values()) == sum(mine.values()):
            agree += 1
            continue
        non_minimal += 1
        bnb = ilp_block_sizes(system, backend="bnb", c1_mode=c1_mode)
        bnb_agrees.append(bnb == mine)
        assert bnb == mine, (name, "branch-and-bound disagrees", mine, bnb)
    return {
        "solves": len(jobs),
        "exact_cpu_s": exact_s,
        "ilp_cpu_s": ilp_s,
        "speedup": ilp_s / exact_s if exact_s else None,
        "sum_agree": agree,
        "highs_non_minimal": non_minimal,
        "highs_infeasible_or_failed": infeasible,
        "bnb_agrees_on_non_minimal": sum(bnb_agrees),
    }


def test_alg1_exact_vs_ilp_oracle():
    pal = Scenario.from_registry(PAPER_PAL).system
    randoms = random_systems(RANDOM_SYSTEMS)
    workloads = {
        "pal_1270ppm": [(pal, "sum")],
        "many_streams_32": [(many_streams_system(32), "sum")],
        "random": [(s, m) for s in randoms for m in ("sum", "paper")],
        "serve_churn_24": [(s, "sum") for s in churn_systems(CHURN_STEPS)],
    }
    rows = {name: compare(name, jobs) for name, jobs in workloads.items()}
    loads = [float(sharing_load(s)) for s in randoms]

    scale_system = many_streams_system(1024, load_pct=90)
    scale_s = None
    for _ in range(BEST_OF):
        started = time.process_time()
        scale = compute_block_sizes(scale_system)
        elapsed = time.process_time() - started
        scale_s = elapsed if scale_s is None else min(scale_s, elapsed)

    banner("ALG1X: exact Algorithm 1 vs the HiGHS ILP oracle")
    print(f"{'workload':<16} {'solves':>6} {'exact s':>9} {'HiGHS s':>9} "
          f"{'speedup':>8} {'Σ agree':>8} {'non-min':>7}")
    for name, r in rows.items():
        print(f"{name:<16} {r['solves']:>6} {r['exact_cpu_s']:>9.4f} "
              f"{r['ilp_cpu_s']:>9.3f} {r['speedup']:>8.1f} {r['sum_agree']:>8} "
              f"{r['highs_non_minimal']:>7}")
    print(f"1024 streams at 90% load: {scale_s:.4f}s CPU, {scale.steps} steps "
          f"on {os.cpu_count()} CPU(s)")

    assert rows["pal_1270ppm"]["sum_agree"] == 1
    pal_eta = compute_block_sizes(pal).block_sizes
    assert (pal_eta["ch1.s1"], pal_eta["ch1.s2"]) == (10136, 1267)
    speedup = rows["random"]["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"exact solver beats HiGHS only {speedup:.1f}x on the random set "
        f"(gate {MIN_SPEEDUP}x, smoke={SMOKE})")
    assert scale_s <= SCALE_LIMIT_S, f"1024 streams took {scale_s:.3f}s CPU"

    if not SMOKE:
        report = make_report("bench", {
            "name": "alg1_exact",
            "workload": {
                "pal_1270ppm": PAPER_PAL,
                "many_streams_32": "repro.exp.tasks.many_streams_system(32)",
                "random": (f"{RANDOM_SYSTEMS} systems from random.Random(0) x "
                           "c1_mode sum/paper; 1-12 streams, load "
                           f"{min(loads):.2f}-{max(loads):.2f}"),
                "serve_churn_24": (f"{CHURN_STEPS} candidate systems of a join/"
                                   "leave sequence over two_radios.json, 22 +/- 2 "
                                   "tenants"),
            },
            "before": {"solver": "Algorithm 1 ILP, SciPy/HiGHS (tests/refilp)"},
            "after": {"solver": "exact integer least fixed point (DESIGN.md §12)"},
            "results": rows,
            "scale_1024_streams_load_0.9": {"exact_cpu_s": scale_s,
                                            "steps": scale.steps,
                                            "total_eta": scale.total},
            "timing": {"clock": "process_time", "best_of": BEST_OF},
            "cpu_count": os.cpu_count(),
        })
        with open(ARTIFACT, "w") as fh:
            fh.write(dump_report(report) + "\n")
