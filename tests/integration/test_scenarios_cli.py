"""The scenario registry through the CLI: scenarios, --scenario, sweep refs."""

import json
import os
from dataclasses import replace

import pytest

from repro import __main__ as cli
from repro.api import Scenario
from repro.app.scenarios import generate


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- repro scenarios ----------------------------------------------------------

def test_scenarios_list(capsys):
    code, out, _ = run_cli(["scenarios", "list"], capsys)
    assert code == 0
    for name in ("pal_decoder", "product_cipher", "multi_mode", "generated"):
        assert name in out


def test_scenarios_describe(capsys):
    code, out, _ = run_cli(["scenarios", "describe", "multi_mode"], capsys)
    assert code == 0
    assert "multi_mode" in out and "period" in out


def test_scenarios_describe_unknown(capsys):
    code, _, err = run_cli(["scenarios", "describe", "nope"], capsys)
    assert code == 2
    assert "unknown scenario" in err


def test_scenarios_run_product_cipher_clean(capsys):
    code, out, _ = run_cli(
        ["scenarios", "run", "product_cipher?sessions=2", "--blocks", "2"],
        capsys,
    )
    assert code == 0
    assert "scenario product_cipher" in out
    assert "verdict: clean" in out


def test_scenarios_run_multi_mode_reports_transitions(capsys):
    code, out, _ = run_cli(
        ["scenarios", "run", "multi_mode?modes=2&period=1200", "--blocks", "3"],
        capsys,
    )
    assert code == 0
    assert "mode transition(s)" in out
    assert "verdict: clean" in out


def test_scenarios_run_json_envelope(capsys):
    code, out, _ = run_cli(
        ["scenarios", "run", "generated?seed=5", "--json"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "repro.report"
    assert body["kind"] == "run"


def test_scenarios_run_json_churn(capsys):
    # the run report must survive a churn scenario whose online re-solves
    # changed block sizes: the conformance section is the per-mode merged
    # view, not the (stale) static-model check
    code, out, _ = run_cli(
        ["scenarios", "run", "multi_mode?modes=2&period=1200", "--blocks", "3",
         "--json"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "run"
    assert body["conformance"]["ok"] is True
    assert body["transitions"], "churn run must report its transitions"


def test_conformance_json_churn_scenario(capsys):
    code, out, _ = run_cli(
        ["conformance", "--scenario", "multi_mode?modes=2&period=1200",
         "--blocks", "3", "--json"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "conformance"
    assert body["ok"] is True


def test_scenarios_run_bad_param(capsys):
    code, _, err = run_cli(
        ["scenarios", "run", "generated?sede=5"], capsys
    )
    assert code == 2
    assert "did you mean" in err


# -- --scenario on the simulation subcommands --------------------------------

def test_metrics_accepts_scenario_flag(capsys):
    code, out, _ = run_cli(
        ["metrics", "--scenario", "product_cipher?sessions=2",
         "--blocks", "2", "--json"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "metrics"
    assert {s["name"] for s in body["streams"]} == {"enc0", "enc1"}


def test_conformance_accepts_scenario_flag(capsys):
    code, out, _ = run_cli(
        ["conformance", "--scenario", "pal_decoder", "--blocks", "2",
         "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_faults_uses_scenario_embedded_plan(capsys):
    code, out, _ = run_cli(
        ["faults", "--scenario", "multi_mode?modes=1&period=1500", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["kind"] == "faults"


def test_faults_without_any_plan_errors(capsys):
    code, _, err = run_cli(
        ["faults", "--scenario", "pal_decoder", "--blocks", "2"], capsys
    )
    assert code == 2
    assert "--plan" in err


def test_reconfig_runs_scenario_churn(capsys):
    code, out, _ = run_cli(
        ["reconfig", "--scenario", "multi_mode?modes=1&period=1500",
         "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["kind"] == "reconfig"


def test_config_and_scenario_are_mutually_exclusive(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        cli.main(["metrics", str(path), "--scenario", "pal_decoder"])
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err


def test_scenario_flag_rejects_unknown_name(capsys):
    code, _, err = run_cli(
        ["metrics", "--scenario", "pal_decodr"], capsys
    )
    assert code == 2
    assert "did you mean" in err


# -- sweep over scenario references ------------------------------------------

def test_sweep_scenario_corpus(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["sweep", "scenario://generated?seed=3", "--points", "4",
         "--workers", "1", "--name", "cli_corpus"],
        capsys,
    )
    assert code == 0
    artifact = tmp_path / "BENCH_cli_corpus.json"
    assert artifact.exists()
    body = json.loads(artifact.read_text())
    assert len(body["points"]) == 4
    assert all(p["value"]["fully_attributed"] for p in body["points"])


def test_sweep_rejects_malformed_scenario_spec(capsys):
    code, _, err = run_cli(["sweep", "scenario:generated"], capsys)
    assert code == 2
    assert "scenario://" in err


def test_sweep_rejects_multi_point_corpus_without_seed(capsys):
    code, _, err = run_cli(
        ["sweep", "scenario://pal_decoder", "--points", "3", "--workers", "1"],
        capsys,
    )
    assert code == 2
    assert "no 'seed' parameter" in err


@pytest.mark.skipif(
    not os.environ.get("SCENARIO_FUZZ_SMOKE"),
    reason="set SCENARIO_FUZZ_SMOKE=1 to sweep the seeded fuzz corpus",
)
def test_scenario_fuzz_smoke(tmp_path, capsys, monkeypatch):
    """CI gate: a seeded corpus must be conformance-clean end to end."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["sweep", "scenario://generated?seed=0", "--points", "40",
         "--workers", "1", "--name", "fuzz_smoke"],
        capsys,
    )
    assert code == 0, out
    body = json.loads((tmp_path / "BENCH_fuzz_smoke.json").read_text())
    assert len(body["points"]) == 40
    assert all(p["value"]["unattributed"] == 0 for p in body["points"])


# -- the static high-load family with Algorithm 1 block sizes ---------------

def _unpinned_static(seed):
    """A static high-load generated system with every η left to Algorithm 1."""
    system = generate(seed=seed, churn_pct=0, chain_max=6, streams_max=8,
                      load_pct_max=99).system
    streams = tuple(replace(s, block_size=None) for s in system.streams)
    return Scenario(replace(system, streams=streams)).with_blocks(3)


def test_unpinned_high_load_static_run_is_fully_attributed():
    """Seed 1 of the family: eight streams on one chain at high load.

    Fed by one producer tile whose scheduler serialised every stream's
    input puts, g1's second block waited 8412 cycles against a calibrated
    Eq. 3 bound of 8093 (turnaround 9050 against 8840).  The bounds assume
    a backlogged input, which the harness now provides by preloading it.
    """
    result = _unpinned_static(1).build()
    assert [s.block_size for s in result.system.streams] == [
        224, 112, 56, 224, 56, 224, 224, 280]
    assert result.reconfig is None and result.scenario.faults is None
    report = result.attributed_conformance()
    assert not report.unattributed, [v.to_dict() for v in report.unattributed]


@pytest.mark.skipif(
    not os.environ.get("SCENARIO_FUZZ_SMOKE"),
    reason="set SCENARIO_FUZZ_SMOKE=1 to sweep the seeded fuzz corpus",
)
def test_unpinned_static_family_smoke():
    """CI gate: seeds 0-63 of the static high-load family each run free
    of unattributed violations."""
    bad = {}
    for seed in range(64):
        report = _unpinned_static(seed).build().attributed_conformance()
        if report.unattributed:
            bad[seed] = [v.to_dict() for v in report.unattributed]
    assert not bad, bad


def test_generated_churn_streams_stop_at_their_blocks():
    """Seeds 0-15 of the generated corpus: no stream of a churn point,
    initial or joined, is admitted more than the run's ``blocks`` blocks."""
    churn = 0
    for seed in range(16):
        result = generate(seed=seed).build()
        if result.reconfig is None:
            continue
        churn += 1
        blocks = result.run.blocks
        over = {name: len(b.admissions)
                for name, b in result.chain.bindings.items()
                if len(b.admissions) > blocks}
        assert not over, (seed, blocks, over)
    assert churn >= 4
