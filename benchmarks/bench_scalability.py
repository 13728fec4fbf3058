"""Scalability of the analysis machinery beyond the paper's 4-stream case.

The paper evaluates one gateway pair with four streams; a reusable library
must handle more.  These benches time Algorithm 1 and the closed-form
bounds for growing stream counts and assert the results stay sound
(feasible + minimal) as the instance grows.  The stream-count sweep runs
through :mod:`repro.exp` so the timed loop is the same engine the
``repro sweep`` CLI uses.  Run from the repository root (the ILP oracle
lives under ``tests/``).
"""

import os
import sys

from repro.core import compute_block_sizes, gamma, throughput_satisfied
from repro.exp import Sweep, run_sweep
from repro.exp.tasks import many_streams_system, scalability_blocksizes

from conftest import banner

# the ILP oracle is a test module under tests/, never shipped in src/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.refilp import ilp_block_sizes  # noqa: E402


def many_streams(n, load_pct=70, R=4100, eps=15):
    return many_streams_system(
        n, load_pct=load_pct, reconfigure=R, entry_copy=eps
    )


def test_alg1_scales_to_32_streams(benchmark):
    system = many_streams(32)
    result = benchmark(compute_block_sizes, system)
    banner("Algorithm 1 with 32 streams")
    assigned = system.with_block_sizes(result.block_sizes)
    assert throughput_satisfied(assigned)
    print(f"Ση = {result.total}, γ̂ = {gamma(assigned, 's0')} cycles")


def test_alg1_objective_grows_smoothly(benchmark):
    sweep = Sweep.grid(
        "scal_totals", scalability_blocksizes, axes={"streams": [2, 4, 8, 16]}
    )

    def run():
        result = run_sweep(sweep, workers=1)
        return {o.params["streams"]: o.value["total_eta"] for o in result.succeeded}

    totals = benchmark(run)
    banner("Ση vs stream count at constant 70% load (via repro.exp)")
    for n, total in totals.items():
        print(f"  {n:>3} streams: Ση = {total}")
    values = [totals[n] for n in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_exact_matches_ilp_oracles_at_scale(benchmark):
    system = many_streams(12)
    exact = benchmark(compute_block_sizes, system)
    for backend in ("scipy", "bnb"):
        assert ilp_block_sizes(system, backend=backend) == exact.block_sizes


def test_alg1_scales_to_1024_streams(benchmark):
    """1024 streams at 90% load: a few dozen O(n) fixed-point steps."""
    system = many_streams(1024, load_pct=90)
    result = benchmark.pedantic(compute_block_sizes, args=(system,), rounds=3)
    banner("Algorithm 1 with 1024 streams at 90% load")
    print(f"Ση = {result.total} in {result.steps} steps")
    assert result.steps <= 1024 / (1 - 0.9) + 2
    assert throughput_satisfied(system.with_block_sizes(result.block_sizes))


def test_bounds_cheap_at_scale(benchmark):
    system = many_streams(64)
    sizes = compute_block_sizes(system).block_sizes
    assigned = system.with_block_sizes(sizes)

    def all_bounds():
        return [gamma(assigned, s.name) for s in assigned.streams]

    gammas = benchmark(all_bounds)
    assert len(set(gammas)) == 1  # one rotation length for everyone
