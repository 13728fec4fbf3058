"""RECONFIG: mode-transition latency sweep for runtime reconfiguration.

Jung-style bounded mode changes are the point of the reconfiguration
manager: a stream joining or leaving a live system must complete its
freeze → quiesce → re-solve → bus-reprogram → thaw sequence within the
closed-form budget (one block round of the outgoing mode plus the
serialized ConfigBus reprogramming plus slack), and a permanent tile
failure must fail over onto a spare within the watchdog-extended budget.
This bench sweeps the number of already-admitted streams and reports the
measured transition latency of a join and a leave against the budget, then
measures the spare-failover latency.  Every online re-solve must return
Algorithm 1's exact answer for the new stream set.
"""

from fractions import Fraction

from repro.arch import simulate_system
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    compute_block_sizes,
)
from repro.sim.faults import FaultPlan, FaultSpec

from conftest import banner

BLOCKS = 10

#: base denominators for the resident streams, slow enough that any
#: subset keeps the single shared accelerator schedulable after a join
_DENS = [120, 150, 180, 220, 260, 300]


def make_system(n_streams: int) -> GatewaySystem:
    sys_ = GatewaySystem(
        accelerators=(AcceleratorSpec("acc0", 1),),
        streams=tuple(
            StreamSpec(f"s{i}", Fraction(1, _DENS[i]), 410)
            for i in range(n_streams)
        ),
    )
    return sys_.with_block_sizes(compute_block_sizes(sys_).block_sizes)


def s0_admissions(system: GatewaySystem) -> list[int]:
    """s0's admission cycles in a fault-free run of ``system``.

    Every stream stops after ``BLOCKS`` blocks, so a plan timed from these
    cycles lands on live traffic instead of on an idle chain.
    """
    return simulate_system(system, blocks=BLOCKS).chain.bindings[
        "s0"].admissions


def churn_plan(system: GatewaySystem) -> FaultPlan:
    # join at s0's 3rd admission, let s0 leave at its 6th
    s0 = s0_admissions(system)
    return FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=s0[2], target="joiner",
                  params={"throughput": [1, 400], "reconfigure": 410}),
        FaultSpec(kind="stream_leave", at=s0[5], target="s0"),
    ), seed=5)


def run_churn_sweep():
    rows = []
    for n in (2, 3, 4):
        system = make_system(n)
        run = simulate_system(system, blocks=BLOCKS,
                              faults=churn_plan(system), admission=False,
                              spares=0)
        rows.append((n, run))
    return rows


def run_failover():
    # join at s0's 3rd admission, fail the tile at its 6th: the failure
    # strikes under a block of the 3-stream mode
    system = make_system(2)
    s0 = s0_admissions(system)
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=s0[2], target="joiner",
                  params={"throughput": [1, 400], "reconfigure": 410}),
        FaultSpec(kind="permanent_tile_failure", at=s0[5],
                  target="sys.acc0"),
    ), seed=5)
    return simulate_system(system, blocks=BLOCKS, faults=plan,
                           admission=False, spares=1)


def test_transition_latency_within_budget(benchmark):
    rows = benchmark(run_churn_sweep)
    banner("RECONFIG — join/leave transition latency vs stream count")
    print(f"{'streams':>7} {'trigger':<14} {'detail':<8} {'latency':>8} "
          f"{'budget':>8} {'margin':>7}")
    for n, run in rows:
        transitions = run.reconfig.transitions
        assert [t.trigger for t in transitions] == ["stream_join",
                                                    "stream_leave"]
        for t in transitions:
            print(f"{n:>7} {t.trigger:<14} {t.detail:<8} {t.latency:>8} "
                  f"{t.budget:>8} {t.budget - t.latency:>7}")
            assert t.accepted, (n, t.trigger, t.reason)
            # the Jung-style bound: every transition lands inside its
            # closed-form budget
            assert t.within_budget, (n, t.trigger, t.latency, t.budget)
            # the online Algorithm-1 re-run is exact: the least element
            # for the new stream set
            assert t.block_sizes == compute_block_sizes(t.system).block_sizes, (
                n, t.trigger)
        modal = run.mode_conformance()
        assert modal.ok, (n, [str(v) for v in modal.violations])
        assert run.attributed_conformance().fully_attributed, n


def test_transition_budget_grows_with_mode_size(benchmark):
    rows = benchmark(run_churn_sweep)
    banner("RECONFIG — budget scales with the outgoing mode's round length")
    budgets = []
    for n, run in rows:
        join = run.reconfig.transitions[0]
        budgets.append(join.budget)
        print(f"{n} resident streams: join budget {join.budget} cycles")
    # a bigger mode has a longer block round, hence a larger (but still
    # closed-form) transition budget
    assert budgets == sorted(budgets)


def test_spare_failover_latency(benchmark):
    run = benchmark(run_failover)
    banner("RECONFIG — spare-tile failover")
    [failure] = [t for t in run.reconfig.transitions
                 if t.trigger == "tile_failure"]
    print(f"remap {failure.detail}: latency {failure.latency} cycles "
          f"<= budget {failure.budget} (via {failure.via})")
    [fired] = run.injector.events
    assert fired["kind"] == "permanent_tile_failure"
    assert failure.accepted and failure.within_budget
    assert run.chain.remaps == [("sys.acc0", "sys.spare0")]
    for name, binding in run.chain.bindings.items():
        assert not binding.failed, name
        assert binding.blocks_done >= BLOCKS, name
    assert run.attributed_conformance().fully_attributed
