"""The scenario registry through the CLI: scenarios, --scenario, sweep refs."""

import json
import os

import pytest

from repro import __main__ as cli


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
