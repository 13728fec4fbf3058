#!/usr/bin/env python
"""Quickstart: share one accelerator between two real-time streams.

Walks the paper's full design flow in a few lines:

1. describe the shared chain (accelerators, streams, gateway costs),
2. compute minimum block sizes with Algorithm 1 (solved exactly),
3. verify the assignment end-to-end (Eq. 5, SDF model, CSDF model τ ≤ τ̂,
   CSDF ⊑ SDF refinement),
4. print the Fig. 6-style admissible schedule of one block.

Run:  python examples/quickstart.py
"""

from fractions import Fraction

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    analyze_utilization,
    build_stream_csdf,
    compute_block_sizes,
    gamma,
    tau_hat,
    verify_system,
)
from repro.dataflow import admissible_schedule


def main() -> None:
    # -- 1. the system: two radio streams share one CORDIC ----------------
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", rho=1),),
        streams=(
            # throughputs in samples per clock cycle: e.g. 2 MS/s and
            # 0.5 MS/s on a 100 MHz clock
            StreamSpec("radio_a", Fraction(2_000_000, 100_000_000), reconfigure=4100),
            StreamSpec("radio_b", Fraction(500_000, 100_000_000), reconfigure=4100),
        ),
        entry_copy=15,  # ε: entry-gateway cycles/sample (the prototype's 15)
        exit_copy=1,    # δ
    )

    # -- 2. Algorithm 1: minimum block sizes ------------------------------
    result = compute_block_sizes(system)
    print("block sizes (Algorithm 1):")
    for name, eta in result.block_sizes.items():
        print(f"  η[{name}] = {eta}")
    print(f"  aggregate load c0·Σμ = {float(result.load):.3f} (must be < 1)\n")

    assigned = system.with_block_sizes(result.block_sizes)

    # -- 3. the closed-form bounds (Eqs. 2 and 4) -------------------------
    for s in assigned.streams:
        print(
            f"  {s.name}: τ̂ = {tau_hat(assigned, s.name)} cycles, "
            f"γ̂ = {gamma(assigned, s.name)} cycles"
        )
    print()

    # -- 4. full verification ----------------------------------------------
    report = verify_system(assigned)
    print(report.summary())
    print()

    # -- 5. utilization (Section VI-A style) -------------------------------
    util = analyze_utilization(assigned)
    print(
        f"round length {util.round_length} cycles; gateway copying "
        f"{float(util.gateway_copy_fraction):.1%}, reconfiguration "
        f"{float(util.reconfig_fraction):.1%}"
    )
    print()

    # -- 6. Fig. 6: the admissible schedule of one block --------------------
    # (a small-R instance so the per-sample pipeline is visible in ASCII)
    small = GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", rho=2),),
        streams=(
            StreamSpec("radio_a", Fraction(1, 100), reconfigure=20),
            StreamSpec("radio_b", Fraction(1, 400), reconfigure=20),
        ),
        entry_copy=5,
        exit_copy=1,
    ).with_block_sizes({"radio_a": 6, "radio_b": 3})
    graph, info = build_stream_csdf(
        small, "radio_a", producer_period=1, consumer_period=1,
        alpha0=12, alpha3=12, prequeued=12,
    )
    schedule = admissible_schedule(graph, iterations=1)
    print("one-block schedule (η=6, compressed time axis):")
    print(schedule.render(scale=max(1, int(schedule.makespan // 64))))


if __name__ == "__main__":
    main()
