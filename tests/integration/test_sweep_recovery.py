"""Crash recovery end-to-end: killed workers, chaos sweeps, interrupt/resume.

These tests actually kill processes.  The invariants under test:

* a SIGKILLed worker never loses or duplicates a point — the point is
  re-dispatched and the merged digest matches an undisturbed serial run;
* a chaos-disturbed work-queue sweep (seeded kills and stalls mid-point)
  converges to the bit-identical serial result;
* a sweep interrupted mid-run resumes from its journal and finishes
  bit-identical to a never-interrupted run;
* a point that deterministically kills every worker that touches it is
  quarantined after its last run — recorded in the result, never silently
  dropped, and never allowed to sink the rest of the sweep, whose points
  each run once;
* a slow but healthy point that outlives the claim lease completes in its
  last run, which no lease polices, while a point that wedges even its
  last run is quarantined once ``timeout + 5 s`` run out;
* a sweep that runs out of workers degrades to serial in the parent, but
  a point that has already killed a worker gets its last run in a process
  of its own, so it cannot kill the parent;
* a task no fresh worker can import fails the sweep at once instead of
  burning the restart budget and silently degrading to serial.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.exp import (
    ChaosEvent,
    ChaosPlan,
    Sweep,
    SweepInterrupted,
    WorkQueueExecutor,
    run_chaos_sweep,
    run_sweep,
)

KILL_POINT = 2  # the "x" value whose task misbehaves in crashy sweeps
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def plain_task(params, ctx):
    return {"y": params["x"] * 10 + 1, "seed": ctx.seed}


def suicide_once_task(params, ctx):
    """Kill the evaluating process the first time the hot point runs.

    The sentinel file marks "the crash already happened", so the
    re-dispatched twin (and the serial baseline, which pre-creates it)
    completes normally.  SIGKILL is deliberate: no atexit, no cleanup —
    the worst-case worker death.
    """
    if params["x"] == KILL_POINT and params["sentinel"]:
        try:
            with open(params["sentinel"], "x"):
                pass
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return {"y": params["x"] * 10 + 1, "seed": ctx.seed}


def poison_task(params, ctx):
    """Kill *every* process that evaluates the hot point — unrecoverable.

    Every evaluation leaves a mark in the ``marks`` directory first.
    """
    with open(os.path.join(params["marks"], f"x{params['x']}"), "a") as fh:
        fh.write("x")
    if params["x"] == KILL_POINT:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"y": params["x"], "seed": ctx.seed}


def slow_task(params, ctx):
    """The hot point outlives a short claim lease, then finishes."""
    if params["x"] == KILL_POINT:
        time.sleep(1.0)
    return {"y": params["x"], "seed": ctx.seed}


def wedge_task(params, ctx):
    """The hot point blocks the timeout's SIGALRM, then hangs."""
    if params["x"] == KILL_POINT:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(60.0)
    return {"y": params["x"], "seed": ctx.seed}


def crashy_sweep(sentinel, n=6, name="recovery"):
    points = [{"x": i, "sentinel": str(sentinel)} for i in range(n)]
    return Sweep(name, suicide_once_task, points, seed=5)


def assert_no_lost_or_duplicated(result, sweep):
    ids = [o.id for o in result.outcomes]
    assert ids == [p.id for p in sweep.points]
    assert len(set(ids)) == len(ids)


def test_pool_survives_sigkilled_worker_mid_chunk(tmp_path):
    """``workers=2`` starts a pool of queue workers; one dies mid-point."""
    sentinel = tmp_path / "crashed"
    sweep = crashy_sweep(sentinel)

    # serial baseline with the crash "already spent"
    sentinel.touch()
    baseline = run_sweep(sweep, workers=1)
    sentinel.unlink()

    result = run_sweep(sweep, workers=2)
    assert sentinel.exists(), "the crash never fired"
    assert result.mode == "work-queue"
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()
    assert result.payload() == baseline.payload()
    assert result.quarantined == []


def test_queue_survives_sigkilled_worker_mid_chunk(tmp_path):
    sentinel = tmp_path / "crashed"
    sweep = crashy_sweep(sentinel)

    sentinel.touch()
    baseline = run_sweep(sweep, workers=1)
    sentinel.unlink()

    result = run_sweep(
        sweep, workers=2, executor=WorkQueueExecutor(workers=2, poll_s=0.01)
    )
    assert sentinel.exists(), "the crash never fired"
    assert result.mode == "work-queue"
    assert result.worker_restarts >= 1
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()


def test_chaos_sweep_matches_undisturbed_serial_run():
    sweep = Sweep(
        "chaos_eq", plain_task, [{"x": i} for i in range(10)], seed=9
    )
    baseline = run_sweep(sweep, workers=1)
    plan = ChaosPlan(
        seed=7,
        events=(
            ChaosEvent(point=1, action="kill"),
            ChaosEvent(point=3, action="stall", stall_s=0.3),
        ),
    )
    result, monkey = run_chaos_sweep(sweep, plan, workers=2)
    assert monkey.log, "chaos plan never struck"
    assert {entry["action"] for entry in monkey.log} == {"kill", "stall"}
    assert_no_lost_or_duplicated(result, sweep)
    assert result.digest() == baseline.digest()
    assert result.payload() == baseline.payload()
    assert result.quarantined == []


def test_chaos_strikes_claims_first_seen_without_an_owner(monkeypatch):
    """A claim first observed before its owner sidecar is still struck.

    Hiding every point's owner on its first read forces each claim
    through the orphan pass first — the window a worker opens between
    its claim rename and its owner write, which CPU contention widens.
    """
    real_read = WorkQueueExecutor._read_claims
    hidden = set()

    def owner_late(self, root):
        claims = real_read(self, root)
        for index in set(claims) - hidden:
            hidden.add(index)
            del claims[index]
        return claims

    monkeypatch.setattr(WorkQueueExecutor, "_read_claims", owner_late)
    sweep = Sweep(
        "chaos_late", plain_task, [{"x": i} for i in range(10)], seed=9
    )
    plan = ChaosPlan(
        seed=7,
        events=(
            ChaosEvent(point=1, action="kill"),
            ChaosEvent(point=3, action="stall", stall_s=0.3),
        ),
    )
    result, monkey = run_chaos_sweep(sweep, plan, workers=2)
    assert sorted((e["point"], e["action"]) for e in monkey.log) == [
        (1, "kill"), (3, "stall"),
    ]
    baseline = run_sweep(sweep, workers=1)
    assert result.digest() == baseline.digest()


def test_chaos_kill_with_store_then_resume(tmp_path):
    """Chaos + durability: kill workers, then resume from the journal."""
    sweep = Sweep(
        "chaos_store", plain_task, [{"x": i} for i in range(8)], seed=2
    )
    baseline = run_sweep(sweep, workers=1)
    plan = ChaosPlan(seed=3, events=(ChaosEvent(point=0, action="kill"),))
    disturbed, monkey = run_chaos_sweep(sweep, plan, workers=2, store=tmp_path)
    assert monkey.log
    assert disturbed.digest() == baseline.digest()
    # everything is journaled: a rerun is a pure replay, still bit-identical
    replay = run_sweep(sweep, workers=1, store=tmp_path, resume=True)
    assert replay.store_hits == 8
    assert replay.digest() == baseline.digest()


def test_interrupted_pool_run_resumes_bit_identically(tmp_path):
    """Interrupt a parallel (work-queue) run, then resume it in parallel."""
    sweep = Sweep(
        "resume_pool", plain_task, [{"x": i} for i in range(12)], seed=4
    )
    baseline = run_sweep(sweep, workers=1)
    with pytest.raises(SweepInterrupted) as err:
        run_sweep(sweep, workers=2, store=tmp_path, interrupt_after=2)
    assert err.value.completed_points == 2
    resumed = run_sweep(sweep, workers=2, store=tmp_path, resume=True)
    assert resumed.store_hits == 2
    assert_no_lost_or_duplicated(resumed, sweep)
    assert resumed.digest() == baseline.digest()
    assert resumed.payload() == baseline.payload()


def test_poison_point_is_quarantined_not_dropped(tmp_path):
    sweep = Sweep(
        "poison", poison_task,
        [{"id": f"x={i}", "params": {"x": i, "marks": str(tmp_path)}}
         for i in range(6)],
        seed=8,
    )
    result = run_sweep(sweep, workers=2)
    assert result.mode == "work-queue"
    assert_no_lost_or_duplicated(result, sweep)
    quarantined = [o for o in result.outcomes if o.quarantined]
    assert [o.id for o in quarantined] == [f"x={KILL_POINT}"]
    assert quarantined[0].error
    healthy = [o for o in result.outcomes if not o.quarantined]
    assert all(o.ok for o in healthy) and len(healthy) == 5
    # only the poison point ran more than once: its deaths and its last run
    runs = {path.name: len(path.read_text()) for path in tmp_path.iterdir()}
    assert runs.pop(f"x{KILL_POINT}") >= 3
    assert runs == {f"x{i}": 1 for i in range(6) if i != KILL_POINT}
    # quarantine is surfaced in the report, not buried
    report = result.to_report()
    (entry,) = report["execution"]["quarantined"]
    assert set(entry) == {"id", "failures", "error"}
    assert entry["id"] == f"x={KILL_POINT}"
    assert entry["failures"] >= 2
    assert "quarantined" in entry["error"]
    assert result.failed == quarantined


def test_slow_point_outliving_the_lease_completes_in_its_last_run():
    """The lease kills the slow point's worker until the point is
    implicated in ``quarantine_after`` deaths; its last run has no lease."""
    sweep = Sweep("slow", slow_task, [{"x": i} for i in range(4)], seed=3)
    result = run_sweep(
        sweep, workers=2, executor=WorkQueueExecutor(workers=2, lease_s=0.3)
    )
    assert result.ok
    assert result.worker_restarts >= 2
    assert result.quarantined == []
    assert result.payload() == run_sweep(sweep, workers=1).payload()


def test_wedged_point_is_quarantined_when_its_last_run_overruns():
    """With a per-point timeout the last run is bounded at timeout + 5 s."""
    sweep = Sweep("wedge", wedge_task, [{"x": i} for i in range(4)], seed=3)
    started = time.monotonic()
    result = run_sweep(
        sweep, workers=2, timeout=0.2,
        executor=WorkQueueExecutor(workers=2, lease_s=0.3),
    )
    assert time.monotonic() - started < 30.0
    (entry,) = result.quarantined
    assert entry["id"] == f"x={KILL_POINT}" and entry["failures"] >= 2
    assert "wedged its last run past 5.2s" in entry["error"]
    assert [o.ok for o in result.outcomes] == [True, True, False, True]


DEGRADE_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro.exp import Sweep, WorkQueueExecutor, run_sweep
    from tests.integration.test_sweep_recovery import poison_task

    sweep = Sweep(
        "degrade", poison_task,
        [{"id": f"x={i}", "params": {"x": i, "marks": sys.argv[1]}}
         for i in range(4)],
        seed=8,
    )
    # one worker and no restart budget: the poison point's first death
    # leaves no worker, so the rest of the sweep degrades to serial
    result = run_sweep(
        sweep, workers=2, executor=WorkQueueExecutor(workers=1, max_restarts=0)
    )
    print(json.dumps({
        "ok": [o.ok for o in result.outcomes],
        "quarantined": result.quarantined,
        "degraded": result.degraded,
    }))
""")


def _child_env():
    """The test run's environment, able to import repro and this module."""
    paths = [str(SRC), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_degraded_sweep_runs_a_crashed_point_only_in_its_own_process(tmp_path):
    """Run in a child interpreter: a crashed point run in the parent would
    SIGKILL the process that runs the sweep."""
    marks = tmp_path / "marks"
    marks.mkdir()
    script = tmp_path / "degrade.py"
    script.write_text(DEGRADE_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script), str(marks)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=_child_env(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["degraded"]
    assert report["ok"] == [i != KILL_POINT for i in range(4)]
    (entry,) = report["quarantined"]
    assert entry["id"] == f"x={KILL_POINT}" and entry["failures"] == 1
    assert "quarantined" in entry["error"]
    # the poison point ran twice (its first death and its last run), the
    # healthy points once each, whichever process ran them
    runs = {path.name: len(path.read_text()) for path in marks.iterdir()}
    assert runs == {f"x{i}": 2 if i == KILL_POINT else 1 for i in range(4)}


MAIN_TASK_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro.exp import Sweep, SweepError, WorkQueueExecutor, run_sweep

    def task(params, ctx):  # lives in __main__: no fresh worker can import it
        return {"y": params["x"] + 1}

    spawned = []
    real_spawn = WorkQueueExecutor._spawn_worker

    def counting_spawn(self, root):
        spawned.append(1)
        return real_spawn(self, root)

    WorkQueueExecutor._spawn_worker = counting_spawn
    sweep = Sweep("main_task", task, [{"x": i} for i in range(8)])
    try:
        run_sweep(sweep, workers=int(sys.argv[1]))
        outcome = "ran"
    except SweepError as exc:
        outcome = str(exc)
    print(json.dumps({"outcome": outcome, "spawned": len(spawned)}))
""")


@pytest.mark.parametrize("workers", [1, 2])
def test_task_defined_in_main_fails_fast_in_parallel(tmp_path, workers):
    script = tmp_path / "main_task.py"
    script.write_text(MAIN_TASK_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script), str(workers)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    if workers == 1:
        assert report == {"outcome": "ran", "spawned": 0}
        return
    assert "__main__.task" in report["outcome"]
    assert "importable module" in report["outcome"]
    assert "workers=1" in report["outcome"]
    assert report["spawned"] == 2  # the initial workers only: no restarts


@pytest.mark.skipif(
    os.environ.get("SWEEP_CHAOS_SMOKE") != "1",
    reason="long randomized chaos smoke; set SWEEP_CHAOS_SMOKE=1 to run",
)
def test_chaos_smoke_randomized_plans():
    """Heavier randomized chaos battery for CI's opt-in smoke job."""
    sweep = Sweep(
        "chaos_smoke", plain_task, [{"x": i} for i in range(16)], seed=21
    )
    baseline = run_sweep(sweep, workers=1)
    for seed in range(3):
        plan = ChaosPlan.random(
            seed=seed, point_count=16, kill_rate=0.4, stall_rate=0.25
        )
        result, monkey = run_chaos_sweep(sweep, plan, workers=2)
        assert_no_lost_or_duplicated(result, sweep)
        assert result.digest() == baseline.digest(), (
            f"chaos seed {seed} diverged (struck: {monkey.log})"
        )
