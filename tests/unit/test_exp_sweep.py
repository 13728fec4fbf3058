"""Sweep specs: eager validation, grid expansion, deterministic seeding."""

import os

import pytest

from repro.exp import Sweep, SweepError, SweepPoint, point_seed, run_sweep
from repro.exp.tasks import fig8_min_buffer, get_task


def echo_task(params, ctx):
    """Module-level (hence picklable) task used across these tests."""
    return {"params": dict(params), "seed": ctx.seed}


# -- construction -------------------------------------------------------------

def test_grid_expands_cartesian_product_in_order():
    sweep = Sweep.grid("g", echo_task, axes={"a": [1, 2], "b": ["x", "y"]})
    assert [p.id for p in sweep.points] == [
        "a=1,b=x", "a=1,b=y", "a=2,b=x", "a=2,b=y",
    ]
    assert sweep.points[2].params == {"a": 2, "b": "x"}


def test_grid_merges_base_params():
    sweep = Sweep.grid("g", echo_task, axes={"a": [1]}, base={"k": 7})
    assert sweep.points[0].params == {"k": 7, "a": 1}


def test_grid_axis_overrides_base():
    sweep = Sweep.grid("g", echo_task, axes={"a": [5]}, base={"a": 1})
    assert sweep.points[0].params == {"a": 5}


def test_points_accept_id_params_mappings():
    sweep = Sweep("s", echo_task, [{"id": "first", "params": {"a": 1}}])
    assert sweep.points[0].id == "first"
    assert sweep.points[0].params == {"a": 1}


def test_plain_mappings_synthesise_ids():
    sweep = Sweep("s", echo_task, [{"a": 1}, {"a": 2}])
    assert [p.id for p in sweep.points] == ["a=1", "a=2"]


def test_sweep_point_seeds_are_rederived():
    point = SweepPoint(id="p", params={}, seed=999)
    sweep = Sweep("s", echo_task, [point], seed=3)
    assert sweep.points[0].seed == point_seed(3, "s", "p")
    assert sweep.points[0].seed != 999


# -- eager validation ---------------------------------------------------------

def test_empty_points_rejected():
    with pytest.raises(SweepError, match="no points"):
        Sweep("s", echo_task, [])


def test_empty_axes_rejected():
    with pytest.raises(SweepError, match="empty axes"):
        Sweep.grid("s", echo_task, axes={})


def test_empty_axis_rejected():
    with pytest.raises(SweepError, match="axis 'a' is empty"):
        Sweep.grid("s", echo_task, axes={"a": []})


def test_scalar_axis_rejected():
    with pytest.raises(SweepError, match="must be a sequence"):
        Sweep.grid("s", echo_task, axes={"a": 3})


def test_string_axis_rejected():
    with pytest.raises(SweepError, match="must be a sequence"):
        Sweep.grid("s", echo_task, axes={"a": "abc"})


def test_duplicate_ids_rejected():
    points = [
        {"id": "same", "params": {"a": 1}},
        {"id": "same", "params": {"a": 2}},
    ]
    with pytest.raises(SweepError, match="duplicate point ids: \\['same'\\]"):
        Sweep("s", echo_task, points)


def test_lambda_task_rejected_up_front():
    with pytest.raises(SweepError, match="lambda or closure"):
        Sweep("s", lambda params, ctx: {}, [{"a": 1}])


def test_closure_task_rejected_up_front():
    def outer():
        bound = 42

        def inner(params, ctx):
            return {"v": bound}

        return inner

    with pytest.raises(SweepError, match="picklable"):
        Sweep("s", outer(), [{"a": 1}])


def test_non_callable_task_rejected():
    with pytest.raises(SweepError, match="must be callable"):
        Sweep("s", 42, [{"a": 1}])


def test_unknown_task_name_rejected():
    # strings resolve through the built-in task registry
    with pytest.raises(SweepError, match="unknown sweep task"):
        Sweep("s", "not-a-task", [{"a": 1}])


def test_task_name_resolves_builtin():
    sweep = Sweep("s", "fig8-buffers", [{"eta": 2}])
    from repro.exp.tasks import fig8_min_buffer

    assert sweep.task is fig8_min_buffer


def test_scenario_ref_task_folds_params():
    sweep = Sweep("s", "scenario://generated?seed=7", [{"blocks": 2}])
    point = sweep.points[0]
    assert point.params["scenario"] == "generated"
    assert point.params["seed"] == 7
    # explicit point params win over the reference's values
    assert point.params["blocks"] == 2


def test_scenario_ref_task_validates_eagerly():
    with pytest.raises(SweepError, match="did you mean"):
        Sweep("s", "scenario://generated?sede=7", [{"a": 1}])


def test_non_json_params_rejected():
    with pytest.raises(SweepError, match="JSON-serialisable"):
        Sweep("s", echo_task, [{"a": {1, 2, 3}}])


def test_non_picklable_params_rejected():
    with pytest.raises(SweepError, match="not picklable"):
        Sweep("s", echo_task, [{"f": lambda: None}])


def test_bad_sweep_name_rejected():
    for bad in ("", "has space", "slash/y", 42):
        with pytest.raises(SweepError, match="sweep name"):
            Sweep(bad, echo_task, [{"a": 1}])


def test_bad_point_type_rejected():
    with pytest.raises(SweepError, match="SweepPoint or a params mapping"):
        Sweep("s", echo_task, [("a", 1)])


def test_explicit_point_bad_id_rejected():
    with pytest.raises(SweepError, match="non-empty string"):
        Sweep("s", echo_task, [{"id": "", "params": {}}])


def test_explicit_point_bad_params_rejected():
    with pytest.raises(SweepError, match="must be a mapping"):
        Sweep("s", echo_task, [{"id": "p", "params": [1, 2]}])


def test_unknown_task_name():
    with pytest.raises(SweepError, match="unknown sweep task"):
        get_task("definitely-not-registered")


# -- deterministic seeding ----------------------------------------------------

def test_point_seed_is_pure():
    assert point_seed(0, "s", "p") == point_seed(0, "s", "p")


def test_point_seed_varies_with_every_input():
    base = point_seed(0, "s", "p")
    assert point_seed(1, "s", "p") != base
    assert point_seed(0, "t", "p") != base
    assert point_seed(0, "s", "q") != base


def test_point_seed_fits_32_bits():
    for i in range(50):
        assert 0 <= point_seed(i, "sweep", f"point{i}") < 2**32


def test_seeds_independent_of_point_order():
    forward = Sweep("s", echo_task, [{"a": 1}, {"a": 2}])
    backward = Sweep("s", echo_task, [{"a": 2}, {"a": 1}])
    by_id_f = {p.id: p.seed for p in forward.points}
    by_id_b = {p.id: p.seed for p in backward.points}
    assert by_id_f == by_id_b


def test_task_sees_point_seed():
    sweep = Sweep("seeded", echo_task, [{"a": 1}], seed=11)
    result = run_sweep(sweep, workers=1)
    assert result.outcomes[0].value["seed"] == point_seed(11, "seeded", "a=1")


# -- point order --------------------------------------------------------------

def test_outcomes_keep_sweep_order_regardless_of_chunking():
    """Points land in any order on the queue; the merge is in sweep order."""
    sweep = Sweep.grid("g", echo_task, axes={"a": list(range(10))})
    result = run_sweep(sweep, workers=2)
    assert [o.params["a"] for o in result.outcomes] == list(range(10))


def test_real_task_runs_serially():
    sweep = Sweep.grid("fig8", fig8_min_buffer, axes={"eta": [1, 5]})
    result = run_sweep(sweep, workers=1)
    assert result.ok
    assert [o.value["alpha"] for o in result.outcomes] == [5, 5]


# -- per-point timeout must not clobber an outer ITIMER_REAL budget --------


def _quick_task(params, ctx):
    return {"ok": True}


def _slow_task(params, ctx):
    import time
    time.sleep(5)
    return {"ok": True}


@pytest.mark.timeout(60, method="thread")
def test_point_timeout_restores_outer_itimer():
    """An outer SIGALRM budget survives a guarded point that finishes."""
    import signal

    from repro.exp.engine import PointContext, _call_with_timeout

    point = SweepPoint(id="p0", params={}, seed=1)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        _call_with_timeout(_quick_task, point, PointContext(seed=1), 5.0)
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    # the outer budget is re-armed with its remaining time, not wiped
    assert 25.0 < remaining <= 30.0
    assert interval == 0.0


@pytest.mark.timeout(60, method="thread")
def test_point_timeout_expiry_restores_outer_itimer():
    """The outer budget survives even when the point times out."""
    import signal

    from repro.exp.engine import (
        PointContext,
        _PointTimeout,
        _call_with_timeout,
    )

    point = SweepPoint(id="p0", params={}, seed=1)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with pytest.raises(_PointTimeout):
            _call_with_timeout(_slow_task, point, PointContext(seed=1), 0.05)
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    assert 25.0 < remaining <= 30.0


@pytest.mark.timeout(60, method="thread")
def test_point_timeout_without_outer_itimer_disarms():
    import signal

    from repro.exp.engine import PointContext, _call_with_timeout

    point = SweepPoint(id="p0", params={}, seed=1)
    _call_with_timeout(_quick_task, point, PointContext(seed=1), 5.0)
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert remaining == 0.0


# -- execution attribution: serial runs can't masquerade as parallel -------


def test_report_records_worker_attribution():
    sweep = Sweep.grid("fig8", fig8_min_buffer, axes={"eta": [1, 5, 9]})
    result = run_sweep(sweep, workers=1)
    report = result.to_report()
    execution = report["execution"]
    assert execution["requested_workers"] == 1
    assert execution["workers"] == 1
    assert execution["effective_workers"] == 1
    assert execution["mode"] == "serial"
    assert execution["cpu_count"] == os.cpu_count()
    # the point is the only unit of work: no grouping is reported
    assert not [key for key in execution if "chunk" in key]


def test_engine_picked_workers_recorded_as_unrequested():
    sweep = Sweep.grid("fig8", fig8_min_buffer, axes={"eta": [1]})
    result = run_sweep(sweep)  # workers=None: engine picks
    execution = result.to_report()["execution"]
    assert execution["requested_workers"] is None
    assert execution["workers"] >= 1
    # effective workers never exceeds the work available
    assert execution["effective_workers"] <= len(result.outcomes)


# -- portable timeout fallback + retry attribution -------------------------


def _flaky_task(params, ctx):
    """Fails its first ``fail_times`` attempts, then succeeds."""
    if ctx.attempt < params["fail_times"]:
        raise RuntimeError(f"transient failure #{ctx.attempt}")
    return {"ok": True, "seed": ctx.seed}


@pytest.mark.timeout(60, method="thread")
def test_wall_clock_fallback_off_main_thread():
    """Where SIGALRM is unavailable the watchdog thread enforces the budget."""
    import threading

    from repro.exp.runner import (
        TIMEOUT_WALL_CLOCK,
        PointContext,
        _PointTimeout,
        _call_with_timeout,
    )

    point = SweepPoint(id="p0", params={}, seed=1)
    box = {}

    def run_off_main():
        try:
            _, mechanism = _call_with_timeout(
                _quick_task, point, PointContext(seed=1), 5.0
            )
            box["mechanism"] = mechanism
            try:
                _call_with_timeout(
                    _slow_task, point, PointContext(seed=1), 0.05
                )
            except _PointTimeout as err:
                box["expired"] = err.mechanism
        except BaseException as exc:  # surfaced below, not swallowed
            box["error"] = exc

    thread = threading.Thread(target=run_off_main)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert "error" not in box, box
    assert box["mechanism"] == TIMEOUT_WALL_CLOCK
    assert box["expired"] == TIMEOUT_WALL_CLOCK


def test_report_records_timeout_mechanism():
    sweep = Sweep("timed", _quick_task, [{"x": 0}, {"x": 1}])
    result = run_sweep(sweep, workers=1, timeout=5.0)
    timeout = result.to_report()["execution"]["timeout"]
    assert timeout["limit_s"] == 5.0
    assert timeout["mechanism"] in ("sigalrm", "wall-clock")
    # no budget armed -> no mechanism claimed
    bare = run_sweep(sweep, workers=1)
    assert bare.to_report()["execution"]["timeout"] == {
        "limit_s": None,
        "mechanism": None,
    }


def test_retry_records_decisive_seed_and_attempts():
    sweep = Sweep(
        "flaky",
        _flaky_task,
        [{"i": 0, "fail_times": 0}, {"i": 1, "fail_times": 2}],
        seed=6,
    )
    result = run_sweep(sweep, workers=1, retries=2)
    assert result.ok
    (retried,) = result.retried
    assert retried.attempts == 3
    assert retried.retry_seed == retried.seed + 2
    # the task really ran under the derived seed it reports
    assert retried.value["seed"] == retried.retry_seed
    clean = next(o for o in result.outcomes if o is not retried)
    assert clean.attempts == 1 and clean.retry_seed is None
    recorded = result.to_report()["execution"]["retried_points"]
    assert recorded == {
        retried.id: {"attempts": 3, "retry_seed": retried.retry_seed}
    }


def test_retry_seed_is_part_of_the_digest_deterministically():
    sweep = Sweep(
        "flaky_digest", _flaky_task, [{"i": 0, "fail_times": 1}], seed=2
    )
    first = run_sweep(sweep, workers=1, retries=1)
    second = run_sweep(sweep, workers=1, retries=1)
    assert first.digest() == second.digest()
    assert first.payload()[0]["retry_seed"] is not None


def test_retry_delay_is_seeded_exponential_backoff():
    from repro.exp import retry_delay

    assert retry_delay(0.0, seed=42, attempt=1) == 0.0
    first = retry_delay(0.1, seed=42, attempt=1)
    assert first == retry_delay(0.1, seed=42, attempt=1)
    assert 0.05 <= first < 0.1
    second = retry_delay(0.1, seed=42, attempt=2)
    assert 0.1 <= second < 0.2
    assert retry_delay(0.1, seed=43, attempt=1) != first
