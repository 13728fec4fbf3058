"""The repository's layers, as the traced run sees them.

:func:`install` wraps each layer's public entry points in spans (every
module that imported an entry point by name gets the same wrapper);
:func:`count_simulations` keeps the exact simulated counts of every run,
read from its public result objects, in traced and untraced passes alike;
:func:`per_layer` turns spans and counts into the ``per_layer`` metrics of
``BENCHMARK.json``.  A layer a workload bypasses reports 0.
"""

from __future__ import annotations

import functools
from typing import Any

from spans import Recorder, layer_stats

__all__ = [
    "install", "install_serve", "count_simulations", "sim_counts", "merge_sim",
    "sim_metrics", "per_layer",
]

#: span names used below, one per layer boundary
IMPORT = "import"
BUILD = "app.build"
ALG1 = "alg1"
VERIFY = "dataflow.verify"
SIMULATE = "sim.simulate"
CONFORMANCE = "conformance"
REPORT = "report"
SWEEP = "exp.run_sweep"
POINT = "exp.point"
SUBMIT = "serve.submit"


def sim_counts(run) -> dict[str, Any]:
    """Exact simulated counts of one :class:`SimulationRun`."""
    fast = run.fastpath()
    rings = fast.get("rings", {}).values()
    clients = fast.get("clients", {}).values()
    util = run.utilization()
    return {
        "runs": 1,
        "churn_runs": int(run.reconfig is not None),
        "horizon": run.horizon,
        "skipped": run.soc.sim.skipped_cycles,
        "transitions": 0 if run.reconfig is None else len(run.reconfig.transitions),
        "blocks_admitted": util.blocks_admitted,
        # cycle counts, so that shares aggregate over runs of any length
        "copy_cycles": util.copy_cycles,
        "reconfig_cycles": util.reconfig_cycles,
        "poll_cycles": util.poll_cycles,
        "fast_flits": sum(r["fast"] for r in rings),
        "slow_flits": sum(r["slow"] for r in rings),
        "demoted": sum(r["demoted"] for r in rings),
        "fused_puts": sum(c.get("fused_puts", 0) for c in clients),
        "slow_puts": sum(c.get("slow_puts", 0) for c in clients),
    }


def merge_sim(counts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum of :func:`sim_counts` records (an empty list gives zeros)."""
    keys = ("runs", "churn_runs", "horizon", "skipped", "transitions",
            "blocks_admitted", "copy_cycles", "reconfig_cycles", "poll_cycles",
            "fast_flits", "slow_flits", "demoted", "fused_puts", "slow_puts")
    return {k: sum(c[k] for c in counts) for k in keys}


def count_simulations() -> list[dict[str, Any]]:
    """Keep :func:`sim_counts` of every ``simulate_system`` run in the
    returned list.  Installed after :func:`install`, so that reading the
    counts stays outside the traced span."""
    import repro.arch.harness as harness

    counts: list[dict[str, Any]] = []
    simulate = harness.simulate_system

    @functools.wraps(simulate)
    def counted(*args, **kwargs):
        run = simulate(*args, **kwargs)
        counts.append(sim_counts(run))
        return run

    harness.simulate_system = counted
    return counts


def _mark_churn(rec: dict, run) -> None:
    rec["attrs"]["churn"] = run.reconfig is not None


def install(recorder: Recorder) -> None:
    """Wrap the in-process layers' entry points (call after importing repro)."""
    import repro.api as api
    import repro.app.scenarios as scenarios
    import repro.arch.harness as harness
    import repro.arch.reconfig as reconfig
    import repro.core.blocksize_ilp as blocksize_ilp
    import repro.core.config_io as config_io
    import repro.core.verification as verification
    import repro.exp as exp
    import repro.exp.cache as cache
    import repro.exp.engine as engine
    import repro.exp.tasks as tasks

    recorder.patch([scenarios], "build_scenario", BUILD)
    recorder.patch([blocksize_ilp, api, cache, tasks, reconfig],
                   "resolve_block_sizes", ALG1)
    recorder.patch([verification], "verify_system", VERIFY)
    recorder.patch([harness], "simulate_system", SIMULATE, on_result=_mark_churn)
    recorder.patch([api.RunResult], "attributed_conformance", CONFORMANCE)
    recorder.patch([api.RunResult], "report", REPORT)
    recorder.patch([engine.SweepResult], "to_report", REPORT)
    recorder.patch([config_io], "dump_report", REPORT)
    recorder.patch([engine, exp], "run_sweep", SWEEP)
    # the per-point task: looked up by name when a sweep is constructed,
    # and pickled by module path, so the registry and the module attribute
    # must hold the same wrapper
    recorder.patch([tasks], "scenario_conformance", POINT,
                   op=lambda params, ctx: f"seed={params.get('seed')}")
    tasks.TASKS["scenario"] = tasks.scenario_conformance


def install_serve(recorder: Recorder) -> None:
    """Wrap the admission server's entry points: Algorithm 1 and submit."""
    import repro.core.blocksize_ilp as blocksize_ilp
    import repro.serve.service as service

    recorder.patch([blocksize_ilp, service], "resolve_block_sizes", ALG1)
    recorder.patch(
        [service.AdmissionService], "submit", SUBMIT,
        op=lambda self, raw: (f"{raw.get('op')}:{raw.get('stream')}"
                              if isinstance(raw, dict) else None))


def sim_metrics(sim: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of merged :func:`sim_counts` (simulated, exact)."""
    horizon = sim["horizon"]
    flits = sim["fast_flits"] + sim["slow_flits"]
    return {
        "sim.horizon_cycles": horizon,
        "sim.skipped_cycles": sim["skipped"],
        "reconfig.transitions": sim["transitions"],
        "corpus.churn_points": sim["churn_runs"],
        "ring.fast_flits": sim["fast_flits"],
        "ring.slow_flits": sim["slow_flits"],
        "ring.demoted": sim["demoted"],
        "ring.take_rate": sim["fast_flits"] / flits if flits else 0.0,
        "cfifo.fused_puts": sim["fused_puts"],
        "cfifo.slow_puts": sim["slow_puts"],
        "gateway.blocks_admitted": sim["blocks_admitted"],
        "gateway.copy_share": sim["copy_cycles"] / horizon if horizon else 0.0,
        "gateway.reconfig_share": (sim["reconfig_cycles"] / horizon
                                   if horizon else 0.0),
        "gateway.poll_share": sim["poll_cycles"] / horizon if horizon else 0.0,
    }


def per_layer(spans: list[dict], extra: dict[str, float],
              names: list[str]) -> dict[str, float]:
    """Every metric in ``names`` from spans plus workload-supplied values.

    ``extra`` carries what only the workload knows (the exact simulated
    counts, sweep cache counters, serve status counters, load-generator
    lateness, report size); any name neither source provides is a bypassed
    layer and reports 0.
    """
    stats = layer_stats(spans)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    sim_self = get(SIMULATE, "self_s")
    churn_self = sum(s["self"] for s in spans if s["attrs"].get("churn"))
    submits = get(SUBMIT, "calls")
    values = {
        "setup.import_s": get(IMPORT, "total_s"),
        "app.build_s": get(BUILD, "self_s"),
        "alg1.calls": get(ALG1, "calls"),
        "alg1.self_s": get(ALG1, "self_s"),
        "alg1.call_p50_ms": get(ALG1, "p50_ms"),
        "dataflow.verify_s": get(VERIFY, "self_s"),
        "sim.simulate_s": sim_self,
        "sim.simulate_churn_s": churn_self,
        "sim.simulate_static_s": sim_self - churn_self,
        "conformance.self_s": get(CONFORMANCE, "self_s"),
        "report.self_s": get(REPORT, "self_s"),
        "exp.overhead_s": get(SWEEP, "self_s") + get(POINT, "self_s"),
        "serve.submit_self_ms": (1000 * get(SUBMIT, "self_s") / submits
                                 if submits else 0.0),
        **extra,
    }
    simulated = values["sim.simulate_s"]
    values["sim.cycles_per_s"] = (values.get("sim.horizon_cycles", 0) / simulated
                                  if simulated else 0.0)
    return {name: values.get(name, 0) for name in names}
