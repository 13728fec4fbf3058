"""Built-in sweep tasks: the paper's evaluation loops as picklable points.

Each task is a module-level function ``task(params, ctx) -> dict`` (the
shape :class:`~repro.exp.sweep.Sweep` requires for process-pool fan-out):
``params`` is the point's JSON-serialisable parameter dict, ``ctx`` the
:class:`~repro.exp.engine.PointContext` carrying the deterministic point
seed and the chunk-local :class:`~repro.exp.cache.SolverCache`.  Returned
dicts must be JSON-serialisable — they are persisted verbatim into
``BENCH_<name>.json`` and hashed for the serial ≡ parallel identity check.

These tasks back both the ported ``benchmarks/bench_*`` files and the
``repro sweep`` CLI subcommand (see :data:`TASKS`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from ..core.blocksize_ilp import resolve_block_sizes
from ..core.params import AcceleratorSpec, GatewaySystem, StreamSpec
from ..core.config_io import system_from_dict
from ..core.timing import gamma
from .sweep import SweepError

__all__ = [
    "TASKS",
    "get_task",
    "solve_blocksizes",
    "scalability_blocksizes",
    "fig8_min_buffer",
    "pal_blocksizes",
    "conformance_margins",
    "scenario_conformance",
]


def _solve(system: GatewaySystem, ctx):
    """Algorithm 1 via the chunk-local cache when armed, directly otherwise."""
    if ctx is not None and ctx.cache is not None:
        return ctx.cache.resolve(system)
    return resolve_block_sizes(system)


def solve_blocksizes(params: dict[str, Any], ctx) -> dict[str, Any]:
    """Algorithm 1 on an explicit system description.

    params: ``system`` (a :func:`~repro.core.config_io.system_to_dict`
    dict).
    """
    system = system_from_dict(params["system"])
    result = _solve(system, ctx)
    return {
        "block_sizes": dict(sorted(result.block_sizes.items())),
        "objective": result.objective,
        "load": float(result.load),
    }


def many_streams_system(
    n: int,
    load_pct: int = 70,
    reconfigure: int = 4100,
    entry_copy: int = 15,
) -> GatewaySystem:
    """The bench_scalability family: ``n`` weighted streams at a target load."""
    weights = list(range(1, n + 1))
    base = Fraction(load_pct, 100 * entry_copy * sum(weights))
    return GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=tuple(
            StreamSpec(f"s{i}", base * w, reconfigure)
            for i, w in enumerate(weights)
        ),
        entry_copy=entry_copy,
        exit_copy=1,
    )


def scalability_blocksizes(params: dict[str, Any], ctx) -> dict[str, Any]:
    """Algorithm 1 over growing stream counts / loads (SCAL sweep).

    params: ``streams`` (count), optional ``load_pct``, ``reconfigure``,
    ``entry_copy``.
    """
    system = many_streams_system(
        params["streams"],
        load_pct=params.get("load_pct", 70),
        reconfigure=params.get("reconfigure", 4100),
        entry_copy=params.get("entry_copy", 15),
    )
    result = _solve(system, ctx)
    assigned = system.with_block_sizes(result.block_sizes)
    return {
        "objective": result.objective,
        "total_eta": result.total,
        "load": float(result.load),
        "gamma": gamma(assigned, "s0"),
    }


def fig8_min_buffer(params: dict[str, Any], ctx) -> dict[str, Any]:
    """Fig. 8 minimum buffer capacity for one (η, consumption) point.

    params: ``eta``, optional ``consumption`` (paper: 5).
    """
    from ..dataflow import SDFGraph, min_capacity_for_liveness

    eta = params["eta"]
    consumption = params.get("consumption", 5)
    g = SDFGraph(f"fig8[{eta}]")
    g.add_actor("vA", 1)
    g.add_actor("vB", consumption)
    g.add_edge("vA", "vB", production=eta, consumption=consumption, name="ch")
    return {"eta": eta, "alpha": min_capacity_for_liveness(g, "ch")}


def pal_blocksizes(params: dict[str, Any], ctx) -> dict[str, Any]:
    """PAL-demonstrator block sizes at one rate margin (ALG1 sweep).

    params: optional ``margin_ppm`` (0.127% == 1270), ``audio_rate``,
    ``clock_hz``.
    """
    from ..app import pal_block_sizes as _pal_block_sizes

    margin = Fraction(1) + Fraction(params.get("margin_ppm", 0), 1_000_000)
    sizes = _pal_block_sizes(
        audio_rate=params.get("audio_rate", 44_100),
        clock_hz=params.get("clock_hz", 100_000_000),
        rate_margin=margin,
    )
    return {"block_sizes": dict(sorted(sizes.items()))}


#: rates far below capacity for conformance shapes: Eq. 5 never binds
_SLOW = Fraction(1, 10**9)


def conformance_margins(params: dict[str, Any], ctx) -> dict[str, Any]:
    """Cycle-level simulation of one system shape; Eq. 2–5 margins (CONF).

    params: ``entry_copy``, ``exit_copy``, ``rhos`` (list), ``reconfigure``,
    ``etas`` (list), optional ``blocks``.
    """
    from ..api import Scenario

    system = GatewaySystem(
        accelerators=tuple(
            AcceleratorSpec(f"a{i}", r) for i, r in enumerate(params["rhos"])
        ),
        streams=tuple(
            StreamSpec(f"s{i}", _SLOW, params["reconfigure"], block_size=e)
            for i, e in enumerate(params["etas"])
        ),
        entry_copy=params["entry_copy"],
        exit_copy=params["exit_copy"],
    )
    result = Scenario(system).with_blocks(params.get("blocks", 3)).build()
    report = result.conformance()
    streams = []
    for sc in report.streams:
        thr = sc.achieved_throughput
        guar = sc.bounds.guaranteed_throughput
        streams.append({
            "stream": sc.stream,
            "ok": sc.ok,
            "block_time_margin": sc.block_time_margin,
            "wait_margin": sc.wait_margin,
            "turnaround_margin": sc.turnaround_margin,
            # exact Fractions as strings: JSON-safe yet lossless for the
            # achieved >= guaranteed comparison downstream
            "achieved_throughput": None if thr is None else str(thr),
            "guaranteed_throughput": None if guar is None else str(guar),
            "violations": [str(v) for v in sc.violations],
        })
    return {"ok": report.ok, "horizon": result.horizon, "streams": streams}


def scenario_conformance(params: dict[str, Any], ctx) -> dict[str, Any]:
    """Build a registered scenario, run it, gate on attributed conformance.

    params: ``scenario`` (a registry name or reference — see
    :mod:`repro.app.scenarios`), optional ``strict`` (raise on any
    unattributed Eq. 2–5 violation so the sweep exits non-zero — the fuzz
    corpus gate), every other key is validated against the entry's
    parameter schema.
    """
    from ..app.scenarios import ScenarioError, build_scenario, parse_ref

    p = dict(params)
    try:
        ref = p.pop("scenario")
    except KeyError:
        raise SweepError(
            "scenario task needs a 'scenario' param (a registry name like "
            "'generated', or a scenario:// reference)"
        ) from None
    strict = bool(p.pop("strict", False))
    try:
        scenario = build_scenario(ref, **p)
    except ScenarioError as err:
        raise SweepError(str(err)) from None
    result = scenario.build(cache=ctx.cache if ctx is not None else None)
    att = result.attributed_conformance()
    rm = result.reconfig
    body = {
        "scenario": parse_ref(ref)[0],
        "ok": att.report.ok,
        "violations": len(att.attributions),
        "unattributed": len(att.unattributed),
        "fully_attributed": att.fully_attributed,
        "horizon": result.horizon,
        "streams": len(result.system.streams),
        "transitions": 0 if rm is None else len(rm.transitions),
    }
    if strict and not att.fully_attributed:
        raise SweepError(
            f"scenario {ref!r}: {len(att.unattributed)} unattributed "
            f"conformance violation(s): "
            + "; ".join(str(v) for v in att.unattributed[:3])
        )
    return body


TASKS: dict[str, Callable[..., dict]] = {
    "solve": solve_blocksizes,
    "scalability": scalability_blocksizes,
    "fig8-buffers": fig8_min_buffer,
    "pal-blocksizes": pal_blocksizes,
    "conformance": conformance_margins,
    "scenario": scenario_conformance,
}


def get_task(name: str) -> Callable[..., dict]:
    """Look up a built-in task by its registry name (friendly error)."""
    try:
        return TASKS[name]
    except KeyError:
        raise SweepError(
            f"unknown sweep task {name!r}; built-ins: {', '.join(sorted(TASKS))}"
        ) from None
