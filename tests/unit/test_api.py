"""The repro.api facade: Scenario builder, RunResult views, report schema."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.api import RunResult, Scenario, load_scenario
from repro.core import AcceleratorSpec, GatewaySystem, ParameterError, StreamSpec
from repro.core.config_io import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    ReportError,
    dump_report,
    load_report,
    make_report,
    system_to_dict,
)
from repro.sim.faults import FaultPlan


@pytest.fixture
def small_system():
    return GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=(
            StreamSpec("s0", Fraction(1, 100_000), 40, block_size=8),
            StreamSpec("s1", Fraction(1, 200_000), 40, block_size=4),
        ),
        entry_copy=6,
        exit_copy=1,
    )


@pytest.fixture
def unsolved_system(small_system):
    return replace(
        small_system,
        streams=tuple(
            replace(s, block_size=None) for s in small_system.streams
        ),
    )


# -- Scenario builder ---------------------------------------------------------

def test_builders_return_new_frozen_scenarios(small_system):
    base = Scenario(small_system)
    varied = base.with_blocks(7).with_spares(2)
    assert base.blocks == 4 and base.spares == 0
    assert (varied.blocks, varied.spares) == (7, 2)
    with pytest.raises(AttributeError):
        base.blocks = 9


def test_with_trace_sets_mode(small_system):
    s = Scenario(small_system).with_trace(False)
    assert (s.trace, Scenario(small_system).trace) == (False, True)
    assert s.with_trace(True) == Scenario(small_system)


def test_solve_is_noop_when_sizes_assigned(small_system):
    s = Scenario(small_system)
    assert s.solve() is s


def test_solve_assigns_missing_sizes(unsolved_system):
    solved = Scenario(unsolved_system).solve()
    assert all(s.block_size is not None for s in solved.system.streams)


def test_with_block_sizes_pins_instead_of_solving(unsolved_system):
    s = Scenario(unsolved_system).with_block_sizes({"s0": 8, "s1": 4})
    assert [st.block_size for st in s.system.streams] == [8, 4]


# -- build / RunResult --------------------------------------------------------

def test_build_runs_simulation(small_system):
    result = Scenario(small_system).with_blocks(3).build()
    assert isinstance(result, RunResult)
    metrics = result.metrics()
    assert all(m.blocks_done == 3 for m in metrics.values())
    assert result.horizon > 0
    assert result.solver is None  # sizes were pinned, nothing solved


def test_build_solves_and_records_solver(unsolved_system):
    result = Scenario(unsolved_system).with_blocks(2).build()
    assert result.solver is not None
    assert result.solver.block_sizes.keys() == {"s0", "s1"}


def test_conformance_ok_on_clean_run(small_system):
    result = Scenario(small_system).with_blocks(3).build()
    assert result.conformance().ok


def test_reconfig_view_requires_churn_or_spares(small_system):
    result = Scenario(small_system).with_blocks(2).build()
    assert result.reconfig is None
    with pytest.raises(ParameterError, match="churn run"):
        result.report("reconfig")


def test_spares_arm_the_reconfig_view(small_system):
    result = Scenario(small_system).with_blocks(2).with_spares(1).build()
    assert result.reconfig is not None
    report = result.report("reconfig")
    assert report["kind"] == "reconfig"
    assert report["transitions"] == []


# -- report envelopes ---------------------------------------------------------

def test_metrics_report_envelope_and_body(small_system):
    report = Scenario(small_system).with_blocks(2).build().report("metrics")
    assert report["schema"] == REPORT_SCHEMA
    assert report["version"] == REPORT_SCHEMA_VERSION
    assert report["kind"] == "metrics"
    # historical CLI keys survive at the top level
    assert {"horizon", "streams", "gateway"} <= set(report)
    assert report["gateway"]["copy"] >= 0
    json.dumps(report)  # JSON-serialisable end to end


def test_conformance_report_keeps_ok_key(small_system):
    report = Scenario(small_system).with_blocks(2).build().report("conformance")
    assert report["kind"] == "conformance"
    assert report["ok"] is True
    assert isinstance(report["streams"], list)


def test_faults_report_with_plan(small_system):
    result = (
        Scenario(small_system).with_blocks(2).with_faults(FaultPlan()).build()
    )
    report = result.report("faults")
    assert report["kind"] == "faults"
    assert report["injected"] == []


def test_run_report_merges_sections(unsolved_system):
    report = Scenario(unsolved_system).with_blocks(2).build().report()
    assert report["kind"] == "run"
    assert {"streams", "gateway", "conformance", "solver"} <= set(report)
    assert report["solver"]["objective"] >= 2


def test_unknown_report_kind_rejected(small_system):
    result = Scenario(small_system).with_blocks(2).build()
    with pytest.raises(ParameterError, match="unknown report kind"):
        result.report("nope")


# -- report schema round-trip -------------------------------------------------

def test_report_round_trip():
    report = make_report("metrics", {"horizon": 1, "streams": []})
    again = load_report(dump_report(report))
    assert again == report


def test_make_report_rejects_unknown_kind():
    with pytest.raises(ReportError, match="unknown report kind"):
        make_report("bogus", {})


def test_make_report_rejects_envelope_shadowing():
    with pytest.raises(ReportError, match="shadows envelope"):
        make_report("metrics", {"schema": "evil"})


def test_load_report_rejects_wrong_schema():
    blob = json.dumps({"schema": "other", "version": 1, "kind": "metrics"})
    with pytest.raises(ReportError, match="schema"):
        load_report(blob)


def test_load_report_rejects_future_version():
    blob = json.dumps(
        {"schema": REPORT_SCHEMA, "version": 99, "kind": "metrics"}
    )
    with pytest.raises(ReportError, match="version"):
        load_report(blob)


# -- load_scenario ------------------------------------------------------------

def test_load_scenario_from_json_text(small_system):
    text = json.dumps(system_to_dict(small_system))
    scenario = load_scenario(text)
    assert scenario.system == small_system


def test_load_scenario_from_path(tmp_path, small_system):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_dict(small_system)))
    assert load_scenario(path).system == small_system
    assert load_scenario(str(path)).system == small_system


def test_load_scenario_missing_file():
    with pytest.raises(ParameterError, match="cannot read scenario config"):
        load_scenario("/nonexistent/system.json")


# -- registry front door ------------------------------------------------------

def test_from_registry_builds_named_scenario():
    scenario = Scenario.from_registry("product_cipher", sessions=2)
    assert len(scenario.system.streams) == 2
    inline = Scenario.from_registry("product_cipher?sessions=2")
    assert inline.system == scenario.system


def test_report_churn_uses_modal_conformance():
    # after an online re-solve the static model's η is stale; the run and
    # conformance reports must carry the per-mode merged view instead of
    # crashing on the η mismatch
    result = Scenario.from_registry("multi_mode?modes=2&period=1200").build()
    assert result.reconfig is not None
    merged = result.mode_conformance().merged().to_dict()
    assert result.report("run")["conformance"] == merged
    conf = result.report("conformance")
    assert conf["ok"] == merged["ok"]
    assert conf["streams"] == merged["streams"]


def test_from_registry_rejects_unknown(small_system):
    from repro.app.scenarios import ScenarioError

    with pytest.raises(ScenarioError, match="unknown scenario"):
        Scenario.from_registry("no_such_thing")
    with pytest.raises(ScenarioError, match="no parameter"):
        Scenario.from_registry("generated", sede=1)


def test_load_scenario_routes_registry_uris():
    scenario = load_scenario("scenario://generated?seed=42")
    from repro.app.scenarios import generate

    assert scenario.system == generate(seed=42).system


def test_run_result_clean_property(small_system):
    result = Scenario(small_system).with_blocks(2).build()
    assert result.clean is result.attributed_conformance().fully_attributed
    assert result.clean


def test_with_no_fastpath_round_trips(small_system):
    s = Scenario(small_system).with_no_fastpath()
    assert s.no_fastpath is True
    result_slow = s.with_blocks(2).build()
    result_fast = Scenario(small_system).with_blocks(2).build()
    # functional equivalence: the fast path is an optimisation only
    assert {n: m.blocks_done for n, m in result_slow.metrics().items()} == \
        {n: m.blocks_done for n, m in result_fast.metrics().items()}


def test_facade_matches_direct_harness_call(small_system):
    from repro.arch import simulate_system

    direct = simulate_system(small_system, blocks=3, trace=False)
    via_api = Scenario(small_system).with_blocks(3).with_trace(False).build()
    assert via_api.horizon == direct.horizon
    assert {n: m.to_dict() for n, m in via_api.metrics().items()} == {
        n: m.to_dict() for n, m in direct.metrics().items()
    }


# ---------------------------------------------------------------------------
# builder error paths: every bad value fails at the call that introduced it
# ---------------------------------------------------------------------------

def _unsolved_system():
    return GatewaySystem(
        accelerators=(AcceleratorSpec("a", 1),),
        streams=(StreamSpec("s0", Fraction(1, 6000), 100),),
        entry_copy=15,
        exit_copy=1,
    )



def test_with_blocks_rejects_non_positive(small_system):
    with pytest.raises(ParameterError, match="blocks must be >= 1"):
        Scenario(system=small_system).with_blocks(0)


def test_with_spares_rejects_negative(small_system):
    with pytest.raises(ParameterError, match="spares must be >= 0"):
        Scenario(system=small_system).with_spares(-1)


def test_with_max_cycles_rejects_non_positive(small_system):
    with pytest.raises(ParameterError, match="max_cycles must be >= 1"):
        Scenario(system=small_system).with_max_cycles(0)
    # None stays the documented "no cap" spelling
    assert Scenario(system=small_system).with_max_cycles(None).max_cycles is None


def test_with_block_sizes_conflicts_with_solve():
    scenario = Scenario(system=_unsolved_system()).solve()
    solved = scenario.system.stream("s0").block_size
    with pytest.raises(ParameterError, match="conflicts with already-assigned"):
        scenario.with_block_sizes({"s0": solved + 1})
    # re-pinning the identical size is not a conflict
    again = scenario.with_block_sizes({"s0": solved})
    assert again.system.stream("s0").block_size == solved


def test_with_block_sizes_on_unsolved_system_still_pins():
    scenario = Scenario(system=_unsolved_system()).with_block_sizes({"s0": 9})
    assert scenario.system.stream("s0").block_size == 9
