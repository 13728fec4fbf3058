"""Integration tests for runtime reconfiguration (stream churn + failover).

The acceptance scenario of the reconfiguration subsystem: against a live
two-stream system, a third stream joins mid-run, the only accelerator tile
fails permanently and is remapped onto a dormant spare, and one of the
original streams leaves — all without stopping the simulation.  Every
transition must finish within its bounded budget (the Jung-style mode
change argument), every surviving stream must meet its Eq. 5 guarantee in
every steady mode, and every bound violation must be attributable to an
injected event.
"""

from fractions import Fraction

import pytest

from repro.arch import simulate_system
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    compute_block_sizes,
)
from repro.sim.faults import FaultPlan, FaultSpec

BLOCKS = 12


def _system() -> GatewaySystem:
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc0", 1),),
        streams=(
            StreamSpec("pal", Fraction(1, 120), 410),
            StreamSpec("ntsc", Fraction(1, 150), 410),
        ),
    )
    return system.with_block_sizes(compute_block_sizes(system).block_sizes)


def _pal_admissions() -> list[int]:
    """pal's admission cycles in a fault-free run of :func:`_system`.

    Both streams finish their ``BLOCKS`` blocks by cycle 13,440 there, so
    a plan timed from these cycles lands on live traffic.
    """
    return simulate_system(_system(), blocks=BLOCKS).chain.bindings[
        "pal"].admissions


def _churn_plan() -> FaultPlan:
    # join at pal's 3rd admission, fail the tile at its 6th and let ntsc
    # leave at its 9th: the failure strikes under a block of the 3-stream
    # mode, and ntsc leaves with blocks still to go
    pal = _pal_admissions()
    return FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=pal[2], target="web",
                  params={"throughput": [1, 200], "reconfigure": 410}),
        FaultSpec(kind="permanent_tile_failure", at=pal[5], target="sys.acc0"),
        FaultSpec(kind="stream_leave", at=pal[8], target="ntsc"),
    ), seed=3)


def _run_churn():
    return simulate_system(_system(), blocks=BLOCKS, faults=_churn_plan(),
                           admission=False, spares=1)


class TestChurnAcceptance:
    @pytest.fixture(scope="class")
    def run(self):
        return _run_churn()

    def test_all_transitions_accepted_within_budget(self, run):
        transitions = run.reconfig.transitions
        assert [t.trigger for t in transitions] == [
            "stream_join", "tile_failure", "stream_leave"]
        assert all(t.accepted for t in transitions)
        assert all(t.within_budget for t in transitions), [
            (t.trigger, t.latency, t.budget) for t in transitions]

    def test_resolver_answers_are_exact_online(self, run):
        churn = [t for t in run.reconfig.transitions
                 if t.trigger in ("stream_join", "stream_leave")]
        assert len(churn) == 2
        for t in churn:
            # the online re-solve is Algorithm 1 itself: the least element
            assert t.block_sizes == compute_block_sizes(t.system).block_sizes

    def test_spare_failover_remaps_the_dead_tile(self, run):
        [fired] = run.injector.events
        assert fired["kind"] == "permanent_tile_failure"
        assert run.chain.remaps == [("sys.acc0", "sys.spare0")]
        [failure] = [t for t in run.reconfig.transitions
                     if t.trigger == "tile_failure"]
        assert failure.detail == "sys.acc0->sys.spare0"
        assert failure.via == "watchdog"
        # the spare is live in the chain, the dead tile is gone
        names = [t.name for t in run.chain.tiles]
        assert "sys.spare0" in names and "sys.acc0" not in names

    def test_surviving_streams_complete(self, run):
        bindings = run.chain.bindings
        assert bindings["pal"].blocks_done >= BLOCKS
        assert bindings["web"].blocks_done >= BLOCKS
        assert not bindings["pal"].failed
        assert not bindings["web"].failed

    def test_streams_stop_at_their_block_quota(self, run):
        """A stream that neither left nor failed is admitted exactly
        ``BLOCKS`` blocks; the one that left stopped short of them."""
        bindings = run.chain.bindings
        for name in ("pal", "web"):
            b = bindings[name]
            assert len(b.admissions) == len(b.completions) == BLOCKS, name
        assert len(bindings["ntsc"].completions) < BLOCKS

    def test_eq5_met_in_every_mode_after_each_transition(self, run):
        """Post-transition steady modes conform to the per-mode bounds.

        The only tolerated violations sit in the mode window the tile
        failure struck (the replayed block straddles the failure); every
        other mode — in particular the modes entered *after* each
        transition completed — must be clean, throughput included.
        """
        modal = run.mode_conformance()
        [failure] = [t for t in run.reconfig.transitions
                     if t.trigger == "tile_failure"]
        for mc in modal.modes:
            window = mc.window
            # the replayed block is charged to the mode it *started* in —
            # the window cut at the failure's request time
            struck = window.end == failure.requested_at
            if not struck:
                assert mc.report.ok, (
                    f"mode {window.index} [{window.start}, {window.end}): "
                    + "; ".join(str(v) for v in mc.report.violations))

    def test_zero_unattributed_violations(self, run):
        report = run.attributed_conformance()
        assert report.fully_attributed, [str(v) for v in report.unattributed]

    def test_left_stream_is_released(self, run):
        assert "ntsc" not in run.chain.bindings or \
            run.chain.bindings["ntsc"].name == "ntsc"
        [leave] = [t for t in run.reconfig.transitions
                   if t.trigger == "stream_leave"]
        assert leave.detail == "ntsc"
        # post-leave mode no longer budgets for ntsc
        assert "ntsc" not in leave.block_sizes
        assert set(leave.block_sizes) == {"pal", "web"}

    def test_fault_report_includes_transitions(self, run):
        report = run.fault_report()
        assert len(report["transitions"]) == 3
        assert [tuple(r) for r in report["remaps"]] == [
            ("sys.acc0", "sys.spare0")]


def test_churn_run_is_deterministic():
    """Two identical runs produce bit-identical schedules and records."""
    a, b = _run_churn(), _run_churn()
    assert a.horizon == b.horizon
    assert [t.to_dict() for t in a.reconfig.transitions] == \
        [t.to_dict() for t in b.reconfig.transitions]
    assert a.injector.events == b.injector.events
    assert {n: x.blocks_done for n, x in a.chain.bindings.items()} == \
        {n: x.blocks_done for n, x in b.chain.bindings.items()}


def test_tile_failure_without_spare_degrades_gracefully():
    """No spare in the pool: the remap is refused, the streams fail-stop
    (the single-tile chain is unrecoverable), and the run still terminates
    with the refusal on record."""
    pal = _pal_admissions()
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=pal[2], target="web",
                  params={"throughput": [1, 200], "reconfigure": 410}),
        FaultSpec(kind="permanent_tile_failure", at=pal[5], target="sys.acc0"),
    ), seed=3)
    run = simulate_system(_system(), blocks=BLOCKS, faults=plan,
                          admission=False, spares=0)
    [fired] = run.injector.events
    assert fired["kind"] == "permanent_tile_failure"
    refused = [t for t in run.reconfig.transitions if not t.accepted]
    assert refused and refused[0].trigger == "tile_failure"
    assert refused[0].reason == "no-spare"
    assert run.chain.remaps == []
    assert any(b.failed for b in run.chain.bindings.values())


def test_join_of_existing_stream_is_refused():
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=30_000, target="pal",
                  params={"throughput": [1, 200], "reconfigure": 410}),
    ))
    run = simulate_system(_system(), blocks=8, faults=plan,
                          admission=False, spares=1)
    [t] = [t for t in run.reconfig.transitions if t.trigger == "stream_join"]
    assert not t.accepted and t.reason == "already-bound"
    assert run.mode_conformance().ok  # refused transition opens no window


def test_leave_of_last_stream_is_refused():
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc0", 1),),
        streams=(StreamSpec("pal", Fraction(1, 120), 410),),
    )
    system = system.with_block_sizes(compute_block_sizes(system).block_sizes)
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_leave", at=20_000, target="pal"),
    ))
    run = simulate_system(system, blocks=10, faults=plan,
                          admission=False, spares=1)
    leaves = [t for t in run.reconfig.transitions
              if t.trigger == "stream_leave"]
    if leaves:  # the stream may already have drained before the event fired
        assert not leaves[0].accepted
        assert leaves[0].reason in ("last-stream", "not-bound")
    assert run.chain.bindings["pal"].blocks_done >= 10


def test_infeasible_join_is_refused_and_system_unchanged():
    """A join whose rate overloads the chain is rejected by the online
    Algorithm-1 re-run; the running mode keeps its block sizes."""
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=30_000, target="hog",
                  params={"throughput": [9, 10], "reconfigure": 410}),
    ))
    run = simulate_system(_system(), blocks=BLOCKS, faults=plan,
                          admission=False, spares=1)
    [t] = [t for t in run.reconfig.transitions if t.trigger == "stream_join"]
    assert not t.accepted and t.reason.startswith("infeasible")
    assert "hog" not in run.chain.bindings
    assert {s.name for s in run.reconfig.system.streams} == {"pal", "ntsc"}
    assert run.attributed_conformance().fully_attributed


def test_infeasible_join_mid_block_never_freezes_the_chain():
    """Algorithm 1 refuses a join at request time, under an in-flight block.

    The request lands one cycle after pal's third admission, while that
    block is still in the chain.  The refusal is decided before admission
    is touched, so it takes no cycles, and every stream is admitted
    exactly as in a run whose join is refused for naming a bound stream.
    """
    clean = simulate_system(_system(), blocks=BLOCKS, admission=False,
                            spares=1)
    pal = clean.chain.bindings["pal"]
    at = pal.admissions[2] + 1
    assert pal.completions[2] > at  # the block is in flight

    def run_join(target, throughput):
        plan = FaultPlan(specs=(
            FaultSpec(kind="stream_join", at=at, target=target,
                      params={"throughput": throughput, "reconfigure": 410}),
        ))
        return simulate_system(_system(), blocks=BLOCKS, faults=plan,
                               admission=False, spares=1)

    infeasible, bound = run_join("hog", [9, 10]), run_join("pal", [1, 200])
    [t] = infeasible.reconfig.transitions
    assert not t.accepted
    assert t.latency == 0 and t.quiesced_at == t.requested_at
    assert t.within_budget
    assert t.reason.startswith("infeasible: ")
    assert t.reason.count("infeasible:") == 1
    [same] = bound.reconfig.transitions
    assert same.reason == "already-bound"
    assert {n: b.admissions for n, b in infeasible.chain.bindings.items()} \
        == {n: b.admissions for n, b in bound.chain.bindings.items()}


def test_join_block_size_floor_above_eta_max_completes():
    """A join's requested η binds the joiner above the re-solve cap.

    The harness caps online re-solves at ``eta_max`` (40 here), but a
    join's ``block_size`` is honoured as a floor above it, so the joiner's
    preloaded input must hold ``blocks`` blocks of its bound η (64), not
    of ``eta_max``: sized by the cap alone, j0 strands after one block.
    """
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc0", 1),),
        streams=(StreamSpec("s0", Fraction(1, 100), 20, block_size=4),),
    )
    plan = FaultPlan(specs=(
        FaultSpec(kind="stream_join", at=200, target="j0",
                  params={"throughput": [1, 100], "reconfigure": 20,
                          "block_size": 64}),
    ))
    run = simulate_system(system, blocks=3, faults=plan)
    [t] = run.reconfig.transitions
    assert t.accepted and t.block_sizes["j0"] == 64
    j0 = run.chain.bindings["j0"]
    assert j0.eta == 64 and j0.blocks_done >= 3
    assert run.attributed_conformance().fully_attributed
