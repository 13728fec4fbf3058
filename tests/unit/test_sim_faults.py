"""Unit tests for the fault-injection subsystem (`repro.sim.faults`)."""

from fractions import Fraction

import pytest

from repro.arch import CFifo, simulate_system
from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec
from repro.sim import Simulator
from repro.sim.faults import (
    ACCEL_STALL,
    CFIFO_PTR_LOSS,
    RECONFIG_FAIL,
    RING_DELAY,
    RING_DROP,
    STREAM_JOIN,
    STREAM_LEAVE,
    AdmissionController,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    StreamRequirement,
    WatchdogConfig,
)


# -- FaultSpec validation ---------------------------------------------------

def test_spec_rejects_unknown_kind():
    with pytest.raises(FaultError, match="unknown fault kind"):
        FaultSpec(kind="meltdown", at=0)


def test_task_stall_kind_is_rejected():
    """No component fires ``task_stall``, so a plan naming it is refused
    instead of silently doing nothing."""
    with pytest.raises(FaultError, match="unknown fault kind"):
        FaultSpec(kind="task_stall", at=0, extra=1)
    with pytest.raises(FaultError, match="unknown fault kind"):
        FaultPlan.from_json(
            '{"faults": [{"kind": "task_stall", "at": 0, "extra": 1}]}')


def test_spec_rejects_bad_window():
    with pytest.raises(FaultError, match="arming cycle"):
        FaultSpec(kind=ACCEL_STALL, at=-1, extra=1)
    with pytest.raises(FaultError, match="duration"):
        FaultSpec(kind=ACCEL_STALL, at=0, duration=0, extra=1)


def test_stall_kinds_need_extra():
    with pytest.raises(FaultError, match="extra"):
        FaultSpec(kind=ACCEL_STALL, at=0)
    with pytest.raises(FaultError, match="extra"):
        FaultSpec(kind=RING_DELAY, at=0)


def test_probability_only_for_ring_drop():
    with pytest.raises(FaultError, match="probability"):
        FaultSpec(kind=ACCEL_STALL, at=0, extra=1, probability=0.5)
    with pytest.raises(FaultError, match="probability"):
        FaultSpec(kind=RING_DROP, at=0, probability=0.0)
    FaultSpec(kind=RING_DROP, at=0, probability=1.0)  # boundary is legal


def test_spec_window_property():
    spec = FaultSpec(kind=RING_DROP, at=10, duration=5)
    assert spec.until == 15


# -- plan serialisation -----------------------------------------------------

def test_plan_json_round_trip():
    plan = FaultPlan(specs=(
        FaultSpec(kind=ACCEL_STALL, at=100, target="acc0", duration=10,
                  extra=50, count=2),
        FaultSpec(kind=RING_DROP, at=200, ring="credit", src=1, dst=3,
                  probability=0.25),
        FaultSpec(kind=CFIFO_PTR_LOSS, at=5, target="s.in", side="read"),
    ), seed=99)
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert len(again) == 3 and bool(again)


def test_plan_to_dict_omits_defaults():
    d = FaultSpec(kind=RECONFIG_FAIL, at=7, target="pal").to_dict()
    assert d == {"kind": RECONFIG_FAIL, "at": 7, "target": "pal"}


def test_plan_rejects_unknown_fields():
    with pytest.raises(FaultError, match="unknown fault-spec fields"):
        FaultSpec.from_dict({"kind": ACCEL_STALL, "at": 0, "extra": 1,
                             "severity": "bad"})
    with pytest.raises(FaultError, match="unknown fault-plan fields"):
        FaultPlan.from_dict({"faults": [], "rng": 1})


def test_plan_rejects_bad_json():
    with pytest.raises(FaultError, match="invalid fault-plan JSON"):
        FaultPlan.from_json("{nope")


def test_empty_plan_is_falsy():
    assert not FaultPlan()
    assert len(FaultPlan()) == 0


# -- injector hook behaviour ------------------------------------------------

def injector_at(now, *specs, seed=0):
    sim = Simulator()
    sim.now = now
    return FaultInjector(FaultPlan(specs=tuple(specs), seed=seed), sim)


def test_accel_stall_fires_only_in_window():
    spec = FaultSpec(kind=ACCEL_STALL, at=100, duration=10, target="acc0",
                     extra=7)
    assert injector_at(99, spec).accel_extra("acc0") == 0
    assert injector_at(100, spec).accel_extra("acc0") == 7
    assert injector_at(109, spec).accel_extra("acc0") == 7
    assert injector_at(110, spec).accel_extra("acc0") == 0


def test_accel_stall_respects_target_and_count():
    spec = FaultSpec(kind=ACCEL_STALL, at=0, duration=100, target="acc0",
                     extra=5, count=1)
    inj = injector_at(10, spec)
    assert inj.accel_extra("acc1") == 0       # wrong target
    assert inj.accel_extra("acc0") == 5       # fires once
    assert inj.accel_extra("acc0") == 0       # count exhausted
    assert len(inj.events) == 1


def test_ring_drop_records_loss_for_repair():
    spec = FaultSpec(kind=RING_DROP, at=0, duration=10, src=2, dst=3)
    inj = injector_at(5, spec)
    delay, dropped = inj.ring_fault("data", 2, 3)
    assert (delay, dropped) == (0, True)
    assert inj.pending_losses == 1
    assert inj.claim_drops(2, 3) == (1, 0)
    assert inj.pending_losses == 0
    # a credit-ring drop in the opposite direction books against the
    # same data-direction channel
    spec2 = FaultSpec(kind=RING_DROP, at=0, duration=10, ring="credit",
                      src=3, dst=2)
    inj2 = injector_at(5, spec2)
    inj2.ring_fault("credit", 3, 2)
    assert inj2.claim_drops(2, 3) == (0, 1)


def test_ring_drop_probability_is_seed_deterministic():
    spec = FaultSpec(kind=RING_DROP, at=0, duration=10_000, probability=0.5)

    def outcomes(seed):
        inj = injector_at(0, spec, seed=seed)
        return [inj.ring_fault("data", 0, 1)[1] for _ in range(64)]

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)  # astronomically unlikely to collide


def test_ring_delay_accumulates():
    s1 = FaultSpec(kind=RING_DELAY, at=0, duration=10, extra=3)
    s2 = FaultSpec(kind=RING_DELAY, at=0, duration=10, extra=4, src=0)
    inj = injector_at(0, s1, s2)
    assert inj.ring_fault("data", 0, 1) == (7, False)
    assert inj.ring_fault("data", 2, 1) == (3, False)   # s2 src mismatch
    assert inj.max_ring_delay() == 4


def test_cfifo_ptr_loss_matches_side():
    spec = FaultSpec(kind=CFIFO_PTR_LOSS, at=0, duration=10, target="s.in",
                     side="read", count=1)
    inj = injector_at(0, spec)
    assert not inj.cfifo_ptr_loss("s.in", "write")
    assert inj.cfifo_ptr_loss("s.in", "read")
    assert not inj.cfifo_ptr_loss("s.in", "read")  # count cap


def test_reconfig_fail_targets_stream():
    spec = FaultSpec(kind=RECONFIG_FAIL, at=0, duration=10, target="pal")
    inj = injector_at(0, spec)
    assert not inj.reconfig_fails("ntsc")
    assert inj.reconfig_fails("pal")


# -- wiring the injector by kind --------------------------------------------

def _wired_churn_run(*extra_specs):
    """A two-stream churn run (one join, one leave) plus ``extra_specs``;
    returns the run and every C-FIFO it built, joined streams' included."""
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1), AcceleratorSpec("b", 2)),
        streams=(StreamSpec("s0", Fraction(1, 100_000), 40, block_size=4),
                 StreamSpec("s1", Fraction(1, 100_000), 40, block_size=4)),
        entry_copy=2, exit_copy=1,
    )
    plan = FaultPlan(specs=(
        FaultSpec(kind=STREAM_JOIN, at=150, target="s2",
                  params={"throughput": [1, 100_000], "reconfigure": 40,
                          "block_size": 4}),
        FaultSpec(kind=STREAM_LEAVE, at=400, target="s1"),
        *extra_specs,
    ))
    run = simulate_system(system, blocks=3, faults=plan)
    assert [t.trigger for t in run.reconfig.transitions] == [
        STREAM_JOIN, STREAM_LEAVE]
    fifos = [c for c in run.soc.ring.clients if isinstance(c, CFifo)]
    assert len(fifos) == 6  # in + out for s0, s1 and the joined s2
    return run, fifos


def test_churn_only_plan_leaves_ring_tiles_and_fifos_unwired(monkeypatch):
    """Join/leave specs fire no ring, tile or C-FIFO hook, so those stay
    unwired — and every C-FIFO put takes the fused path."""
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    run, fifos = _wired_churn_run()
    assert run.injector is not None
    assert run.chain.entry.fault_injector is run.injector
    assert run.soc.ring.fault_injector is None
    assert all(tile.fault_injector is None for tile in run.chain.tiles)
    assert all(fifo.fault_injector is None for fifo in fifos)
    assert sum(fifo.slow_puts for fifo in fifos) == 0
    assert sum(fifo.fused_puts for fifo in fifos) > 0
    assert run.soc.ring.fastpath_stats()["data"]["slow"] == 0


def test_ring_fault_plan_wires_ring_and_fifos_not_tiles():
    # armed long after the run ends: wiring, not firing, is under test
    run, fifos = _wired_churn_run(FaultSpec(kind=RING_DROP, at=10**9))
    assert run.soc.ring.fault_injector is run.injector
    assert all(fifo.fault_injector is run.injector for fifo in fifos)
    assert all(tile.fault_injector is None for tile in run.chain.tiles)


def test_accel_stall_plan_wires_tiles_only():
    run, fifos = _wired_churn_run(
        FaultSpec(kind=ACCEL_STALL, at=10**9, extra=1))
    assert all(tile.fault_injector is run.injector for tile in run.chain.tiles)
    assert run.soc.ring.fault_injector is None
    assert all(fifo.fault_injector is None for fifo in fifos)


def test_can_fire_follows_the_plan_kinds():
    sim = Simulator()

    def fires(*kinds):
        specs = tuple(FaultSpec(kind=k, at=0, extra=1) for k in kinds)
        inj = FaultInjector(FaultPlan(specs=specs), sim)
        return {c for c in ("ring", "cfifo", "tile") if inj.can_fire(c)}

    assert fires() == set()
    assert fires(RECONFIG_FAIL) == set()
    assert fires(RING_DELAY) == {"ring", "cfifo"}
    assert fires(CFIFO_PTR_LOSS) == {"cfifo"}
    assert fires(ACCEL_STALL, RING_DELAY) == {"ring", "cfifo", "tile"}


# -- WatchdogConfig ---------------------------------------------------------

def test_watchdog_budget_and_backoff():
    wd = WatchdogConfig(budgets={"pal": 1000}, default_budget=500, slack=64,
                        backoff_base=32, backoff_cap=100)
    assert wd.budget_for("pal") == 1064
    assert wd.budget_for("unknown") == 564
    assert wd.backoff(1) == 32
    assert wd.backoff(2) == 64
    assert wd.backoff(3) == 100  # capped
    with pytest.raises(FaultError):
        wd.backoff(0)


def test_watchdog_validation():
    with pytest.raises(FaultError):
        WatchdogConfig(slack=-1)
    with pytest.raises(FaultError):
        WatchdogConfig(backoff_base=64, backoff_cap=32)
    with pytest.raises(FaultError):
        WatchdogConfig(settle_rounds=0)


# -- AdmissionController ----------------------------------------------------

def reqs():
    # a round of the two of them takes 200 cycles; each needs eta/round >= mu
    return [
        StreamRequirement("hi", mu=Fraction(1, 30), tau=100, eta=8),
        StreamRequirement("lo", mu=Fraction(1, 50), tau=100, eta=8),
    ]


def test_admission_pauses_lowest_priority_under_overhead():
    adm = AdmissionController(reqs(), healthy_window=1000)
    # small recovery: 8/(200+10) still >= 1/30 for "hi"
    assert adm.note_recovery(10, "hi", 10) == []
    # huge recovery breaks the check; "lo" (lowest priority) is paused
    assert adm.note_recovery(20, "hi", 500) == ["lo"]
    assert adm.is_paused("lo") and not adm.is_paused("hi")
    assert adm.paused == ["lo"]


def test_admission_readmits_after_healthy_window():
    adm = AdmissionController(reqs(), healthy_window=1000)
    adm.note_recovery(20, "hi", 500)
    assert adm.tick(500) == []          # window not elapsed
    assert adm.tick(1020) == ["lo"]     # healthy again
    assert not adm.is_paused("lo")


def test_admission_never_pauses_last_active_stream():
    adm = AdmissionController(reqs(), healthy_window=1000)
    adm.mark_failed("lo")
    # even an absurd overhead cannot pause the only remaining stream
    assert adm.note_recovery(10, "hi", 10**9) == []
    assert adm.paused == []


def test_admission_failed_streams_leave_the_active_set():
    adm = AdmissionController(reqs(), healthy_window=1000)
    adm.note_recovery(20, "hi", 500)
    adm.mark_failed("lo")
    assert adm.paused == []             # failed trumps paused
    assert adm.tick(10_000) == []       # and is never readmitted
