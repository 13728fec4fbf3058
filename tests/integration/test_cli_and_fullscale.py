"""The CLI entry points and full-scale (tight-margin) verification.

The full-scale PAL deployment runs the gateway at 95.3% load, so the SDF
dataflow check operates with razor-thin slack (η/γ exceeds μ by 2 parts in
10⁴) — a regression guard for exact-arithmetic execution (a float engine
mis-reports the guarantee at this scale).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __main__ as cli

ROOT = Path(__file__).resolve().parents[2]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_blocksizes_nominal(capsys):
    code, out = run_cli(["blocksizes"], capsys)
    assert code == 0
    assert "η[ch1.s1] = 9870" in out
    assert "η[ch1.s2] = 1234" in out


def test_cli_blocksizes_paper_margin(capsys):
    code, out = run_cli(["blocksizes", "--margin", "0.127"], capsys)
    assert code == 0
    assert "η[ch1.s1] = 10136" in out
    assert "η[ch1.s2] = 1267" in out


def test_cli_table1(capsys):
    code, out = run_cli(["table1"], capsys)
    assert code == 0
    assert "63.5%" in out and "66.3%" in out
    assert "75%" in out


def test_cli_fig8(capsys):
    code, out = run_cli(["fig8"], capsys)
    assert code == 0
    for eta, alpha in [(1, 5), (2, 6), (3, 7), (4, 8), (5, 5)]:
        assert f"η={eta}: α={alpha}" in out


def test_cli_utilization(capsys):
    code, out = run_cli(["utilization"], capsys)
    assert code == 0
    assert "95.3%" in out
    assert "6.4%" in out


def test_cli_schedule(capsys):
    code, out = run_cli(["schedule", "--eta", "4"], capsys)
    assert code == 0
    assert "τ(η)" in out
    assert "makespan" in out


def test_cli_verify_full_scale(capsys):
    """End-to-end verification at the paper's full scale must PASS.

    This exercises the exact-arithmetic path: with float durations the
    stage-2 streams' dataflow check flips to NO at this load."""
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "NO" not in out


def test_fullscale_sdf_check_has_thin_slack():
    """Document WHY the exactness matters: the guarantee exceeds the
    requirement by only ~2e-4 relative at full scale."""
    from repro.app import pal_block_sizes, pal_gateway_system
    from repro.core import guaranteed_throughput

    system = pal_gateway_system().with_block_sizes(pal_block_sizes())
    s = system.stream("ch1.s2")
    slack = guaranteed_throughput(system, "ch1.s2") / s.throughput - 1
    assert 0 < float(slack) < 1e-3


def test_cli_analyze_config(tmp_path, capsys):
    from repro.core import dump_system
    from repro.app import pal_gateway_system

    cfg = tmp_path / "system.json"
    cfg.write_text(dump_system(pal_gateway_system()))
    code, out = run_cli(["analyze", str(cfg)], capsys)
    assert code == 0
    assert "PASS" in out
    assert "η[ch1.s1] = 9870" in out


def test_cli_analyze_bnb_backend(tmp_path, capsys):
    """``analyze`` prints the block sizes the branch-and-bound ILP finds."""
    from repro.core import load_system
    from tests.refilp import ilp_block_sizes

    text = (
        '{"entry_copy": 5, "accelerators": [{"name": "a", "rho": 1}],'
        ' "streams": [{"name": "s", "throughput": [1, 100], "reconfigure": 50},'
        ' {"name": "t", "throughput": [1, 300], "reconfigure": 20}]}'
    )
    cfg = tmp_path / "small.json"
    cfg.write_text(text)
    code, out = run_cli(["analyze", str(cfg)], capsys)
    assert code == 0
    assert "PASS" in out
    for name, eta in ilp_block_sizes(load_system(text), backend="bnb").items():
        assert f"η[{name}] = {eta} " in out


def test_cli_analyze_infeasible_config(tmp_path, capsys):
    cfg = tmp_path / "overload.json"
    cfg.write_text(
        '{"entry_copy": 10, "accelerators": [{"name": "a", "rho": 1}],'
        ' "streams": [{"name": "s", "throughput": [1, 5], "reconfigure": 1}]}'
    )
    code, out = run_cli(["analyze", str(cfg)], capsys)
    assert code == 1
    assert "INFEASIBLE" in out


@pytest.mark.parametrize("text", [None, '{"entry_copy": 6,'],
                         ids=["missing", "malformed"])
def test_cli_analyze_bad_config_exits_2(tmp_path, capsys, text):
    """A config that cannot be read or parsed is a usage error (exit 2),
    told apart from analyze's INFEASIBLE / failed-verification exit 1."""
    cfg = tmp_path / "system.json"
    if text is not None:
        cfg.write_text(text)
    code = cli.main(["analyze", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    (line,) = err.strip().splitlines()
    assert line.startswith("error: ") and str(cfg) in line
    assert "Traceback" not in err


def test_cli_stalled_simulation_exits_4_without_traceback():
    """A run that reaches its cycle cap prints ``error:`` and the stall
    diagnostic on stderr and exits with its own code."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "metrics",
         str(ROOT / "examples" / "configs" / "small_radios.json"),
         "--max-cycles", "100"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 4 == cli.EXIT_STALLED
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: simulation stalled at cycle")
    assert "stream radio_a: 0/4 blocks" in proc.stderr
    assert proc.stdout == ""


def test_cli_stall_names_the_cap_and_the_last_event(capsys):
    """The stall header's cycle is the cap the run stopped at; the clock
    of the last fired event is named apart (here the first stream switch
    outlasts the cap, so nothing fires after cycle 0)."""
    code = cli.main(["metrics",
                     str(ROOT / "examples" / "configs" / "small_radios.json"),
                     "--max-cycles", "100"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_STALLED
    assert err.splitlines()[0].startswith(
        "error: simulation stalled at cycle 100 (last event at cycle 0):")
    assert "stream radio_a: 0/4 blocks, in=0 out=0 arrived=0" in err


SMALL_CFG = (
    '{"entry_copy": 6, "exit_copy": 1,'
    ' "accelerators": [{"name": "a", "rho": 1}],'
    ' "streams": ['
    '{"name": "s0", "throughput": [1, 100000], "reconfigure": 40, "block_size": 6},'
    '{"name": "s1", "throughput": [1, 200000], "reconfigure": 40, "block_size": 3}]}'
)


def test_cli_metrics_table(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text(SMALL_CFG)
    code, out = run_cli(["metrics", str(cfg), "--blocks", "3"], capsys)
    assert code == 0
    assert "s0" in out and "s1" in out
    assert "entry gateway: copy" in out


def test_cli_metrics_json(tmp_path, capsys):
    import json

    cfg = tmp_path / "small.json"
    cfg.write_text(SMALL_CFG)
    code, out = run_cli(["metrics", str(cfg), "--blocks", "2", "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert {s["name"] for s in blob["streams"]} == {"s0", "s1"}
    assert all(s["blocks_done"] == 2 for s in blob["streams"])
    assert 0.0 < blob["gateway"]["copy"] < 1.0


def test_cli_conformance_ok(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text(SMALL_CFG)
    code, out = run_cli(["conformance", str(cfg), "--blocks", "3"], capsys)
    assert code == 0
    assert "refinement holds" in out
    assert "VIOLATION" not in out


def test_cli_conformance_json(tmp_path, capsys):
    import json

    cfg = tmp_path / "small.json"
    cfg.write_text(SMALL_CFG)
    code, out = run_cli(["conformance", str(cfg), "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["violations"] == []


def test_cli_conformance_assigns_block_sizes_when_missing(tmp_path, capsys):
    cfg = tmp_path / "nosizes.json"
    cfg.write_text(
        '{"entry_copy": 5, "accelerators": [{"name": "a", "rho": 1}],'
        ' "streams": [{"name": "s", "throughput": [1, 100], "reconfigure": 50}]}'
    )
    code, out = run_cli(["conformance", str(cfg), "--blocks", "2"], capsys)
    assert code == 0
    assert "refinement holds" in out
