"""Command-line interface: regenerate the paper's headline numbers.

Usage::

    python -m repro blocksizes [--clock HZ] [--audio HZ] [--margin PCT]
    python -m repro verify
    python -m repro table1
    python -m repro fig8
    python -m repro utilization
    python -m repro schedule [--eta N]
    python -m repro analyze CONFIG.json
    python -m repro scenarios list
    python -m repro scenarios describe NAME
    python -m repro scenarios run NAME[?params] [--blocks N] [--json]
    python -m repro metrics [CONFIG.json | --scenario NAME] [--blocks N] [--json]
    python -m repro conformance [CONFIG.json | --scenario NAME] [--json] [--uncalibrated]
    python -m repro faults [CONFIG.json | --scenario NAME] [--plan PLAN.json] [--json]
    python -m repro reconfig [CONFIG.json | --scenario NAME] [--plan PLAN.json] [--json]
    python -m repro sweep SPEC.json [--workers N] [--out DIR]
    python -m repro sweep scenario://generated?seed=N --points K

Each subcommand prints one reproduced artefact; together they cover the
evaluation section.  `pytest benchmarks/ --benchmark-only -s` runs the full
harness with assertions.  ``metrics`` and ``conformance`` run the
cycle-level architecture simulation on a JSON system description and report
observed per-stream runtime metrics, respectively the observed-vs-bound
(Eq. 2–5) margins; ``conformance`` exits non-zero on any bound violation.
``faults`` replays a fault-injection plan and prints the recovery report;
``reconfig`` drives runtime reconfiguration — stream joins/leaves and
spare-tile failover — and checks the per-mode bounds, exiting non-zero on
unattributed violations or a transition-budget overrun.  ``sweep`` fans a
parameter-sweep spec out over worker processes (:mod:`repro.exp`;
``--workers 1`` runs in-process) and persists the merged results as
``BENCH_<name>.json``.

The simulation subcommands all take workloads from the **scenario
registry** (:mod:`repro.app.scenarios`): a positional ``CONFIG.json``
still describes a raw system, ``--scenario NAME[?params]`` references a
registered entry, and with neither the PAL decoder runs.  ``repro
scenarios`` lists, describes and runs registry entries directly, and
``repro sweep`` accepts a ``scenario://`` reference to fan a seeded
generated corpus through the sweep engine, gating on conformance-clean
results.

The simulation subcommands are thin shells over :mod:`repro.api`
(``Scenario`` → ``RunResult``); ``--json`` output is the versioned
``repro.report`` envelope of :mod:`repro.core.config_io`, with the
historical top-level keys preserved.

Flag spelling is normalised across subcommands: the config is positional,
the cycle cap is ``--max-cycles``, work per stream is ``--blocks``
everywhere.  See README "Command-line interface".

Exit codes: 0 success; 1 a check failed (a bound violation, an
unattributed violation, a transition over budget, an infeasible design, a
digest mismatch); 2 invalid input (config, plan, spec or flags); 3 an
interrupted sweep that ``--resume`` can finish; 4 a simulation that
reached its cycle cap before every stream completed or failed
(:class:`~repro.arch.SimulationStalled`), reported as ``error:`` and the
stall diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .arch import SimulationStalled
from .core.params import ParameterError

#: exit code of a simulation that stalled at its cycle cap
EXIT_STALLED = 4


def cmd_blocksizes(args: argparse.Namespace) -> int:
    from .app import PAPER_BLOCK_SIZES, pal_block_sizes

    # e.g. --margin 0.127 (percent) -> rate_margin = 1.00127
    margin = Fraction(1) + Fraction(int(round(args.margin * 10000)), 1_000_000)
    sizes = pal_block_sizes(
        audio_rate=args.audio, clock_hz=args.clock, rate_margin=margin
    )
    print(f"Algorithm-1 block sizes (audio {args.audio} Hz, clock {args.clock} Hz, "
          f"margin {args.margin}%):")
    for name, eta in sorted(sizes.items()):
        print(f"  η[{name}] = {eta}")
    print(f"paper: stage-1 {PAPER_BLOCK_SIZES['stage1']}, "
          f"stage-2 {PAPER_BLOCK_SIZES['stage2']} "
          "(reproduced exactly at --margin 0.127)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .app import pal_block_sizes, pal_gateway_system
    from .core import verify_system

    system = pal_gateway_system().with_block_sizes(pal_block_sizes())
    report = verify_system(system)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from .hwcost import paper_table1

    cmp = paper_table1()
    print(cmp.table())
    print(f"accelerator instances reduced by {cmp.accelerator_reduction_pct:.0f}%")
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from .dataflow import SDFGraph, min_capacity_for_liveness

    print("Fig. 8b: minimum buffer capacity vs block size (consumer drains 5)")
    for eta in range(1, 6):
        g = SDFGraph("fig8")
        g.add_actor("vA", 1)
        g.add_actor("vB", 5)
        g.add_edge("vA", "vB", production=eta, consumption=5, name="ch")
        alpha = min_capacity_for_liveness(g, "ch")
        print(f"  η={eta}: α={alpha}")
    print("paper: 5, 6, 7, 8, 5 — non-monotone")
    return 0


def cmd_utilization(args: argparse.Namespace) -> int:
    from .app import pal_block_sizes, pal_gateway_system
    from .core import analyze_utilization

    system = pal_gateway_system().with_block_sizes(pal_block_sizes())
    u = analyze_utilization(system)
    print(f"round length            : {u.round_length} cycles")
    print(f"gateway per-sample copy : {float(u.gateway_copy_fraction):.1%}")
    print(f"reconfiguration R_s     : {float(u.reconfig_fraction):.1%}")
    print(f"data movement           : {float(u.data_processing_fraction):.1%} "
          "(paper ≈5%)")
    print(f"state management        : {float(u.state_management_fraction):.1%} "
          "(paper ≈95%)")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from .core import (
        AcceleratorSpec,
        GatewaySystem,
        StreamSpec,
        build_stream_csdf,
        parametric_schedule,
    )
    from .dataflow import admissible_schedule

    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 2),),
        streams=(StreamSpec("s", Fraction(1, 100), 20, block_size=args.eta),),
        entry_copy=5,
        exit_copy=1,
    )
    print(parametric_schedule(system, "s").describe())
    graph, _info = build_stream_csdf(
        system, "s", producer_period=1, consumer_period=1,
        alpha0=2 * args.eta, alpha3=2 * args.eta, prequeued=2 * args.eta,
    )
    sched = admissible_schedule(graph, iterations=1)
    print()
    print(sched.render())
    return 0


def _read_system(path: str):
    """The system config at ``path``, or ``None`` after one ``error:`` line."""
    from pathlib import Path

    from .core import load_system

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read system config {path}: {exc}", file=sys.stderr)
        return None
    try:
        return load_system(text)
    except ParameterError as exc:
        print(f"error: invalid system config {path}: {exc}", file=sys.stderr)
        return None


def cmd_analyze(args: argparse.Namespace) -> int:
    """Full analysis of a user-supplied gateway system (JSON config).

    Exits 1 when the system is infeasible or fails verification, 2 when
    the config cannot be read or parsed.
    """
    from .core import (
        analyze_utilization,
        compute_block_sizes,
        gamma,
        sample_latency_bound,
        sharing_load,
        tau_hat,
        verify_system,
    )

    system = _read_system(args.config)
    if system is None:
        return 2
    load = sharing_load(system)
    print(f"aggregate load c0·Σμ = {float(load):.4f}")
    if load >= 1:
        print("INFEASIBLE: the shared chain cannot serve these rates")
        return 1
    result = compute_block_sizes(system)
    assigned = system.with_block_sizes(result.block_sizes)
    print("\nblock sizes (Algorithm 1):")
    for name, eta in result.block_sizes.items():
        print(f"  η[{name}] = {eta}   τ̂ = {tau_hat(assigned, name)}  "
              f"L̂ = {float(sample_latency_bound(assigned, name)):.0f} cycles")
    print(f"rotation γ̂ = {gamma(assigned, assigned.streams[0].name)} cycles")
    u = analyze_utilization(assigned)
    print(f"gateway copy {float(u.gateway_copy_fraction):.1%}, "
          f"reconfig {float(u.reconfig_fraction):.1%}")
    report = verify_system(assigned)
    print()
    print(report.summary())
    return 0 if report.ok else 1


def _scenario_from_args(args: argparse.Namespace):
    """Resolve the positional config / ``--scenario`` flag into a Scenario.

    Precedence: an explicit ``--scenario NAME[?params]`` reference wins, a
    positional system-JSON path is next, and with neither the registry's
    ``pal_decoder`` entry is the default — so the bare subcommands run the
    paper's own workload.
    """
    from .api import Scenario, load_scenario

    ref = getattr(args, "scenario", None)
    if ref is not None:
        return Scenario.from_registry(ref)
    if args.config is not None:
        return load_scenario(args.config)
    return Scenario.from_registry("pal_decoder")


def _prepared_scenario(args: argparse.Namespace, **extra):
    """The :class:`repro.api.Scenario` an args namespace describes.

    The single construction point all four simulation subcommands share —
    this is where the CLI is routed through the :mod:`repro.api` facade.
    ``--blocks`` left unset keeps the scenario's own setting (4 for plain
    configs).
    """
    scenario = _scenario_from_args(args)
    if getattr(args, "blocks", None) is not None:
        scenario = scenario.with_blocks(args.blocks)
    if getattr(args, "max_cycles", None) is not None:
        scenario = scenario.with_max_cycles(args.max_cycles)
    for key, value in extra.items():
        scenario = getattr(scenario, f"with_{key}")(value)
    return scenario


def cmd_metrics(args: argparse.Namespace) -> int:
    """Simulate a JSON gateway system and print per-stream runtime metrics."""
    import json

    from .sim import metrics_table

    result = _prepared_scenario(args).build()
    if args.json:
        print(json.dumps(result.report("metrics"), indent=2))
        return 0
    metrics = result.metrics()
    util = result.utilization()
    print(f"simulated {result.scenario.blocks} blocks/stream over "
          f"{result.horizon} cycles")
    print()
    print(metrics_table(metrics.values()))
    print()
    print(f"entry gateway: copy {util.copy:.1%}, reconfig {util.reconfig:.1%}, "
          f"poll {util.poll:.1%}, other {util.other:.1%} "
          f"({util.blocks_admitted} blocks admitted)")
    fp = result.run.fastpath()
    rings = ", ".join(
        f"{ring} {s['take_rate']:.1%} of {s['fast'] + s['slow']}"
        for ring, s in fp["rings"].items()
    )
    state = "on" if fp["enabled"] else "off (REPRO_NO_FASTPATH)"
    print(f"ring fast path {state}: {fp['take_rate']:.1%} of flits fused "
          f"({rings})")
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    """Simulate a JSON gateway system; report observed-vs-bound margins."""
    import json

    result = _prepared_scenario(args).build()
    report = result.conformance(calibrated=not args.uncalibrated)
    if args.json:
        print(json.dumps(
            result.report("conformance", calibrated=not args.uncalibrated),
            indent=2,
        ))
    else:
        which = "bare-model" if args.uncalibrated else "calibrated"
        print(f"simulated {result.scenario.blocks} blocks/stream over "
              f"{result.horizon} cycles; "
              f"checking against {which} Eq. 2–5 bounds")
        print()
        print(report.summary())
    return 0 if report.ok else 1


def _load_fault_plan(path: str):
    """Parse + validate a fault-plan JSON, or print a friendly error.

    Returns the :class:`~repro.sim.faults.FaultPlan`, or ``None`` after
    printing what was wrong (malformed JSON, unknown fault kind, missing
    fields) — the caller exits with status 2 instead of a traceback.
    """
    import json
    from pathlib import Path

    from .sim.faults import FAULT_KINDS, FaultError, FaultPlan

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read fault plan {path}: {exc}", file=sys.stderr)
        return None
    try:
        return FaultPlan.from_json(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return None
    except FaultError as exc:
        print(f"error: invalid fault plan {path}: {exc}", file=sys.stderr)
        print(f"valid fault kinds: {', '.join(sorted(FAULT_KINDS))}",
              file=sys.stderr)
        return None


def cmd_faults(args: argparse.Namespace) -> int:
    """Simulate a JSON gateway system under a fault plan; report recovery."""
    import json

    extra = {}
    if args.plan is not None:
        plan = _load_fault_plan(args.plan)
        if plan is None:
            return 2
        extra["faults"] = plan
    scenario = _prepared_scenario(args, **extra)
    plan = scenario.faults
    if not plan:
        print("error: no fault plan — give --plan PLAN.json, or a "
              "--scenario whose entry carries one (e.g. multi_mode)",
              file=sys.stderr)
        return 2
    result = scenario.build()
    run = result.run
    report = result.fault_report()
    if args.json:
        print(json.dumps(result.report("faults"), indent=2))
        return 0 if report["fully_attributed"] else 1
    print(f"simulated {scenario.blocks} blocks/stream over {run.horizon} "
          f"cycles under {len(plan)} fault spec(s), seed {plan.seed}")
    print()
    print(f"{len(report['injected'])} fault(s) fired:")
    for e in report["injected"]:
        detail = ", ".join(f"{k}={v}" for k, v in e.items()
                           if k not in ("time", "kind"))
        print(f"  cycle {e['time']:>8}  {e['kind']:<16} {detail}")
    print()
    print(f"{'stream':<12} {'blocks':>6} {'timeouts':>8} {'retries':>7} "
          f"{'rec cyc':>8} {'degraded':>8} {'outcome':>10}")
    for name, s in report["streams"].items():
        outcome = ("FAILED" if s["failed"]
                   else "recovered" if s["recovered"] else "clean")
        print(f"{name:<12} {s['blocks_done']:>6} {s['watchdog_timeouts']:>8} "
              f"{s['retries']:>7} {s['recovery_cycles']:>8} "
              f"{s['degraded_cycles']:>8} {outcome:>10}")
    print()
    attributed = run.attributed_conformance()
    print(attributed.summary())
    return 0 if attributed.fully_attributed else 1


def cmd_reconfig(args: argparse.Namespace) -> int:
    """Run a churn plan (joins/leaves/tile failures) with live reconfiguration."""
    import json

    if args.blocks is None and args.scenario is None:
        args.blocks = 8  # historical reconfig default for plain configs
    extra = {"spares": args.spares}
    if args.plan is not None:
        plan = _load_fault_plan(args.plan)
        if plan is None:
            return 2
        extra["faults"] = plan
    scenario = _prepared_scenario(args, **extra)
    plan = scenario.faults
    if not plan and not args.spares:
        print("error: no churn plan — give --plan PLAN.json, --spares N, or "
              "a --scenario whose entry carries churn (e.g. multi_mode)",
              file=sys.stderr)
        return 2
    result = scenario.build()
    run = result.run
    rm = run.reconfig
    if rm is None:
        print("plan has no stream joins/leaves and no spares were "
              "provisioned; nothing to reconfigure (use --spares to arm "
              "tile-failure failover)", file=sys.stderr)
        return 2

    modal = run.mode_conformance()
    attributed = run.attributed_conformance()
    ok_budget = all(t.within_budget for t in rm.accepted)

    if args.json:
        print(json.dumps(result.report("reconfig"), indent=2))
        return 0 if attributed.fully_attributed and ok_budget else 1

    print(f"simulated {scenario.blocks} blocks/stream over {run.horizon} "
          f"cycles with {len(plan) if plan else 0} scheduled event(s), "
          f"{args.spares} spare tile(s)")
    print()
    if not rm.transitions:
        print("no mode transitions occurred")
    else:
        print(f"{'#':>2} {'trigger':<14} {'detail':<24} {'at':>8} "
              f"{'latency':>8} {'budget':>8} {'verdict':>10}")
        for t in rm.transitions:
            verdict = ("refused" if not t.accepted
                       else "OK" if t.within_budget else "OVERRUN")
            detail = t.detail if t.accepted else f"{t.detail} ({t.reason})"
            print(f"{t.index:>2} {t.trigger:<14} {detail:<24} "
                  f"{t.requested_at:>8} {t.latency:>8} {t.budget:>8} "
                  f"{verdict:>10}")
    if run.chain.remaps:
        print()
        print("tile remaps: " + ", ".join(f"{a}->{b}"
                                          for a, b in run.chain.remaps))
    print()
    print(modal.summary())
    print()
    print(attributed.summary())
    return 0 if attributed.fully_attributed and ok_budget else 1


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List, describe or run entries of the scenario registry."""
    import json

    from .app import scenarios as registry

    if args.action == "list":
        width = max((len(n) for n in registry.names()), default=0)
        for name in registry.names():
            d = registry.get(name)
            tags = f"  [{', '.join(d.tags)}]" if d.tags else ""
            print(f"{name:<{width}}  {d.description}{tags}")
        return 0

    if args.action == "describe":
        print(registry.describe(args.name))
        return 0

    # run NAME[?params]
    scenario = registry.build_scenario(args.name)
    if args.blocks is not None:
        scenario = scenario.with_blocks(args.blocks)
    if args.max_cycles is not None:
        scenario = scenario.with_max_cycles(args.max_cycles)
    result = scenario.build()
    if args.json:
        print(json.dumps(result.report("run"), indent=2))
        return 0 if result.clean else 1
    attributed = result.attributed_conformance()
    name = registry.parse_ref(args.name)[0]
    rm = result.reconfig
    print(f"scenario {name}: {len(result.system.streams)} stream(s), "
          f"{len(result.system.accelerators)} accelerator(s), "
          f"{scenario.blocks} blocks/stream over {result.horizon} cycles")
    if rm is not None:
        print(f"{len(rm.transitions)} mode transition(s), "
              f"{sum(1 for t in rm.transitions if t.accepted)} accepted")
    print()
    print(attributed.summary())
    verdict = "clean" if attributed.fully_attributed else "UNATTRIBUTED VIOLATIONS"
    print(f"\nverdict: {verdict}")
    return 0 if attributed.fully_attributed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan a sweep-spec JSON out over an execution backend; persist BENCH JSON."""
    import json
    from pathlib import Path

    from .exp import Sweep, SweepError, SweepInterrupted, run_sweep
    from .exp.store import StoreMismatch
    from .exp.sweep import scenario_corpus
    from .exp.tasks import get_task

    if args.spec.lstrip().startswith("scenario://"):
        # registry reference: fan a seeded corpus instead of a JSON spec
        spec = {}
        try:
            sweep = scenario_corpus(args.spec, points=args.points,
                                    name=args.name, seed=args.seed)
        except SweepError as exc:
            print(f"error: invalid scenario reference {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
    elif args.spec.lstrip().startswith("scenario:"):
        print(f"error: malformed scenario reference {args.spec!r} "
              "(expected scenario://name?param=value)", file=sys.stderr)
        return 2
    else:
        try:
            spec = json.loads(Path(args.spec).read_text())
        except OSError as exc:
            print(f"error: cannot read sweep spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {args.spec} is not valid JSON: {exc}", file=sys.stderr)
            return 2
        try:
            name = spec["name"]
            task = get_task(spec["task"])
            if "axes" in spec:
                sweep = Sweep.grid(name, task, spec["axes"],
                                   base=spec.get("base"), seed=spec.get("seed", 0))
            elif "points" in spec:
                sweep = Sweep(name, task, spec["points"], seed=spec.get("seed", 0))
            else:
                raise SweepError("spec needs an 'axes' grid or a 'points' list")
        except (KeyError, TypeError, SweepError) as exc:
            print(f"error: invalid sweep spec {args.spec}: {exc}", file=sys.stderr)
            return 2
    if args.resume and args.store is None:
        print("error: --resume needs --store DIR to resume from",
              file=sys.stderr)
        return 2

    try:
        result = run_sweep(
            sweep, workers=args.workers, timeout=args.timeout,
            retries=args.retries, backoff=args.backoff,
            store=args.store, resume=args.resume,
            interrupt_after=args.interrupt_after, out_dir=args.out,
        )
    except StoreMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(f"resume with: repro sweep {args.spec} --store {args.store} "
              "--resume", file=sys.stderr)
        return 3
    path = Path(args.out) / f"BENCH_{result.name}.json"
    cache = result.cache
    print(f"sweep {result.name}: {len(result.outcomes)} point(s) on "
          f"{result.workers} worker(s) ({result.mode}), "
          f"{result.elapsed_s:.2f}s")
    print(f"solver cache: {cache['hits']}/{cache['lookups']} hits "
          f"({cache['hit_rate']:.0%})")
    if result.store_path is not None:
        print(f"store: {result.store_hits}/{len(result.outcomes)} point(s) "
              f"replayed from journal {result.store_path}")
    if result.degraded or result.worker_restarts:
        print(f"recovery: {result.worker_restarts} worker restart(s)"
              + (", degraded to serial" if result.degraded else ""))
    for q in result.quarantined:
        print(f"  QUARANTINED {q['id']} ({q['failures']} worker death(s)): "
              f"{q['error']}",
              file=sys.stderr)
    print(f"wrote {path}")
    if args.check:
        serial = run_sweep(sweep, workers=1, timeout=args.timeout,
                           retries=args.retries, backoff=args.backoff)
        if serial.digest() != result.digest():
            print("error: serial re-run digest mismatch — "
                  f"{serial.digest()[:16]} != {result.digest()[:16]}",
                  file=sys.stderr)
            return 1
        print(f"serial re-run digest matches ({result.digest()[:16]}…)")
    for o in result.failed:
        print(f"  FAILED {o.id}: {o.error}", file=sys.stderr)
    return 0 if result.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant admission-control service over a JSON config.

    Exit codes follow the ``sweep`` convention: 0 on a clean shutdown
    (a client's ``shutdown`` op, or a successful ``--smoke`` run), 2 for
    unusable configuration (unreadable/invalid JSON, infeasible baseline,
    bad flags), 3 when interrupted (SIGINT) while serving.
    """
    import asyncio
    import json

    from .serve import AdmissionService, serve_forever, smoke_session

    system = _read_system(args.config)
    if system is None:
        return 2
    try:
        service = AdmissionService(system, queue_depth=args.queue_depth)
    except ParameterError as exc:
        print(f"error: invalid system config {args.config}: {exc}",
              file=sys.stderr)
        return 2

    async def run() -> int:
        ready = asyncio.Event()
        bound: list = []
        server = asyncio.ensure_future(serve_forever(
            service, args.host, args.port, ready=ready, bound=bound,
        ))
        try:
            await ready.wait()
        except BaseException:
            server.cancel()
            raise
        host, port = bound[0]
        if not args.smoke:
            print(f"admission service listening on {host}:{port} "
                  f"({len(system.streams)} baseline stream(s), "
                  f"queue depth {args.queue_depth})", flush=True)
            await server
            return 0
        try:
            summary = await asyncio.to_thread(smoke_session, host, port)
        finally:
            service.shutdown_requested.set()
            await server
        print(json.dumps(summary, indent=2))
        return 0 if summary["ok"] else 1

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted while serving", file=sys.stderr)
        return 3


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    """Positional system config + --scenario."""
    p.add_argument("config", nargs="?", default=None,
                   help="path to a system JSON (see repro.core.config_io)")
    p.add_argument("--scenario", default=None, metavar="NAME[?params]",
                   help="registered scenario reference instead of a config "
                        "(see 'repro scenarios list'); with neither, "
                        "pal_decoder is the default")


def _add_max_cycles_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-cycles", type=int, default=None,
                   help="hard cycle cap; stalling past it is an error")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="IPDPSW'15 accelerator-sharing reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blocksizes", help="Algorithm-1 block sizes (PAL app)")
    p.add_argument("--clock", type=int, default=100_000_000)
    p.add_argument("--audio", type=int, default=44_100)
    p.add_argument("--margin", type=float, default=0.0,
                   help="rate margin in percent (0.127 reproduces the paper)")
    p.set_defaults(fn=cmd_blocksizes)

    p = sub.add_parser("verify", help="full verification of the PAL deployment")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table1", help="Table I cost comparison")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("fig8", help="Fig. 8 buffer non-monotonicity")
    p.set_defaults(fn=cmd_fig8)

    p = sub.add_parser("utilization", help="Section VI-A utilization split")
    p.set_defaults(fn=cmd_utilization)

    p = sub.add_parser("schedule", help="Fig. 6 schedule (symbolic + concrete)")
    p.add_argument("--eta", type=int, default=6)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("analyze", help="analyze a JSON gateway-system config")
    p.add_argument("config", help="path to a system JSON (see repro.core.config_io)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "metrics", help="simulate a JSON config; per-stream runtime metrics"
    )
    _add_config_arg(p)
    p.add_argument("--blocks", type=int, default=None,
                   help="blocks per stream (default 4, or the scenario's "
                        "own setting)")
    _add_max_cycles_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "conformance",
        help="simulate a JSON config; observed-vs-bound (Eq. 2-5) margins",
    )
    _add_config_arg(p)
    p.add_argument("--blocks", type=int, default=None,
                   help="blocks per stream (default 4, or the scenario's "
                        "own setting)")
    _add_max_cycles_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--uncalibrated", action="store_true",
                   help="check against the bare model parameters instead of "
                        "the architecture-calibrated ones")
    p.set_defaults(fn=cmd_conformance)

    p = sub.add_parser(
        "faults",
        help="simulate a JSON config under a fault plan; recovery report",
    )
    _add_config_arg(p)
    p.add_argument("--plan", default=None,
                   help="path to a fault-plan JSON (see repro.sim.faults); "
                        "optional when the --scenario entry carries one")
    p.add_argument("--blocks", type=int, default=None,
                   help="blocks per stream (default 4, or the scenario's "
                        "own setting)")
    _add_max_cycles_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "reconfig",
        help="simulate a churn plan (stream joins/leaves, tile failures) "
             "with runtime reconfiguration",
    )
    _add_config_arg(p)
    p.add_argument("--plan", default=None,
                   help="path to a churn/fault-plan JSON (see "
                        "repro.sim.faults); optional when the --scenario "
                        "entry carries churn")
    p.add_argument("--spares", type=int, default=0,
                   help="dormant spare accelerator tiles for failover")
    p.add_argument("--blocks", type=int, default=None,
                   help="blocks per stream (default 8, or the scenario's "
                        "own setting)")
    _add_max_cycles_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_reconfig)

    p = sub.add_parser(
        "scenarios",
        help="list/describe/run entries of the scenario registry "
             "(repro.app.scenarios)",
    )
    ssub = p.add_subparsers(dest="action", required=True)
    sp = ssub.add_parser("list", help="one line per registered scenario")
    sp.set_defaults(fn=cmd_scenarios)
    sp = ssub.add_parser("describe",
                         help="name, tags and parameter schema of one entry")
    sp.add_argument("name", help="registered scenario name")
    sp.set_defaults(fn=cmd_scenarios)
    sp = ssub.add_parser(
        "run",
        help="build and simulate one entry; exit 0 only on zero "
             "unattributed Eq. 2-5 violations",
    )
    sp.add_argument("name", metavar="NAME[?params]",
                    help="scenario reference, e.g. product_cipher or "
                         "generated?seed=7")
    sp.add_argument("--blocks", type=int, default=None,
                    help="override the scenario's blocks per stream")
    _add_max_cycles_arg(sp)
    sp.add_argument("--json", action="store_true",
                    help="machine-readable 'run' report envelope")
    sp.set_defaults(fn=cmd_scenarios)

    p = sub.add_parser(
        "sweep",
        help="run a parameter-sweep spec over worker processes "
             "(repro.exp); writes BENCH_<name>.json",
    )
    p.add_argument("spec", help="path to a sweep-spec JSON (name, task, "
                                "axes/points, base, seed), or a "
                                "scenario://name?params registry reference "
                                "to fan a seeded corpus")
    p.add_argument("--points", type=int, default=25,
                   help="corpus size for a scenario:// reference "
                        "(ignored for JSON specs)")
    p.add_argument("--name", default=None,
                   help="artifact name for a scenario:// corpus "
                        "(default scenario_corpus_<scenario>)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep root seed for a scenario:// corpus")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes: 1 runs in-process, more run on "
                        "the crash-tolerant work queue (default: min(4, "
                        "cpu count))")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts per failing point")
    p.add_argument("--backoff", type=float, default=0.0,
                   help="base seconds for seeded exponential retry backoff")
    p.add_argument("--store", default=None,
                   help="result-store directory: journal completed points "
                        "durably; matching journaled points replay as cache "
                        "hits")
    p.add_argument("--resume", action="store_true",
                   help="require and resume a matching journal in --store "
                        "(exit 3 from an interrupted run pairs with this)")
    p.add_argument("--interrupt-after", type=int, default=None,
                   help=argparse.SUPPRESS)  # CI/test hook: stop after N points
    p.add_argument("--out", default=".",
                   help="directory for BENCH_<name>.json (default: cwd)")
    p.add_argument("--check", action="store_true",
                   help="re-run serially and verify the merged results are "
                        "bit-identical")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant admission-control service "
             "(repro.serve) over a JSON config",
    )
    p.add_argument("config", help="path to the baseline system JSON")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; printed at startup)")
    p.add_argument("--queue-depth", type=int, default=128,
                   help="bounded admission queue; beyond it requests are "
                        "rejected 'overloaded'")
    p.add_argument("--smoke", action="store_true",
                   help="bind, run the scripted join/overload/leave client "
                        "against the live server, print the check summary "
                        "and exit (CI gate)")
    p.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    if getattr(args, "scenario", None) is not None and args.config is not None:
        parser.error("give either a system config or --scenario, not both")
    try:
        return args.fn(args)
    except ParameterError as exc:  # a bad config, scenario or parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationStalled as exc:
        print(f"error: {exc.diagnostic}", file=sys.stderr)
        return EXIT_STALLED


if __name__ == "__main__":
    sys.exit(main())
