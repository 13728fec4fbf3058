"""Unified facade over the analysis + simulation entry points.

Historically, driving the toolkit end to end meant stitching together four
scattered entry points: :func:`repro.arch.harness.simulate_system` for the
cycle-level run, :mod:`repro.core.conformance` for the Eq. 2–5 checks,
:mod:`repro.sim.faults` for injection plans and
:mod:`repro.arch.reconfig` for churn.  This module wraps them behind one
builder::

    from repro.api import Scenario

    result = (
        Scenario(system)
        .with_blocks(8)
        .with_faults(plan)
        .with_spares(1)
        .build()
    )
    result.conformance().ok
    result.report()          # versioned repro.report envelope

A :class:`Scenario` is immutable; every ``with_*`` call returns a new one,
so partially-configured scenarios can be shared and forked (the sweep
engine relies on this).  :meth:`Scenario.build` solves Algorithm 1 when
block sizes are missing (optionally through a
:class:`repro.exp.SolverCache`), runs the architecture simulation and
returns a :class:`RunResult` carrying metrics, conformance, fault recovery
and reconfiguration views plus the unified report schema of
:mod:`repro.core.config_io`.

The canonical way to *name* a scenario is the registry
(:mod:`repro.app.scenarios`)::

    Scenario.from_registry("product_cipher", sessions=4)
    load_scenario("scenario://generated?seed=42")

Both spellings construct the same validated objects as the explicit
builder; ``load_scenario`` still accepts system-JSON paths and text for
raw :class:`~repro.core.params.GatewaySystem` descriptions.  A
``Scenario`` always names its system: the paper's workload is
``Scenario.from_registry("pal_decoder")``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .core.blocksize_ilp import BlockSizeResult, resolve_block_sizes
from .core.config_io import load_system, make_report
from .core.conformance import (
    AttributedReport,
    ConformanceReport,
    ModalConformanceReport,
)
from .core.params import GatewaySystem, ParameterError
from .sim.faults import AdmissionController, FaultPlan, WatchdogConfig
from .sim.metrics import GatewayUtilization, StreamMetrics

__all__ = ["Scenario", "RunResult", "load_scenario"]


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one end-to-end run.

    Parameters mirror :func:`repro.arch.harness.simulate_system`; the
    builder methods exist so call sites read as a sentence and unset fields
    keep their defaults.
    """

    system: GatewaySystem
    blocks: int = 4
    faults: FaultPlan | None = None
    spares: int = 0
    watchdog: WatchdogConfig | None = None
    admission: AdmissionController | bool | None = None
    max_cycles: int | None = None
    poll_interval: int = 1
    trace: bool = True
    context_mode: str = "software"
    no_fastpath: bool = False

    # -- registry front door ---------------------------------------------
    @classmethod
    def from_registry(cls, name: str, **params: Any) -> "Scenario":
        """Build a registered scenario by name (see :mod:`repro.app.scenarios`).

        ``name`` may carry URI-style parameters (``"generated?seed=3"`` or
        the full ``scenario://`` form); keyword ``params`` are validated
        against the entry's schema with did-you-mean errors.
        """
        from .app.scenarios import build_scenario

        return build_scenario(name, **params)

    # -- builder steps ---------------------------------------------------
    # every step validates eagerly: a bad value must fail at the call that
    # introduced it, not surface as a confusing error at build() time
    def with_blocks(self, blocks: int) -> "Scenario":
        """Blocks to complete per stream."""
        blocks = int(blocks)
        if blocks < 1:
            raise ParameterError(f"blocks must be >= 1, got {blocks}")
        return replace(self, blocks=blocks)

    def with_faults(self, plan: FaultPlan) -> "Scenario":
        """Arm a fault-injection / churn plan."""
        return replace(self, faults=plan)

    def with_spares(self, spares: int) -> "Scenario":
        """Provision dormant cold-spare tiles for tile-failure failover."""
        spares = int(spares)
        if spares < 0:
            raise ParameterError(f"spares must be >= 0, got {spares}")
        return replace(self, spares=spares)

    def with_watchdog(self, watchdog: WatchdogConfig | None) -> "Scenario":
        """Override the default calibrated watchdog."""
        return replace(self, watchdog=watchdog)

    def with_admission(
        self, admission: AdmissionController | bool | None
    ) -> "Scenario":
        """Override (or disable, with ``False``) graceful degradation."""
        return replace(self, admission=admission)

    def with_max_cycles(self, max_cycles: int | None) -> "Scenario":
        """Hard cycle cap; stalling past it raises ``SimulationStalled``."""
        if max_cycles is not None:
            max_cycles = int(max_cycles)
            if max_cycles < 1:
                raise ParameterError(
                    f"max_cycles must be >= 1 (or None), got {max_cycles}"
                )
        return replace(self, max_cycles=max_cycles)

    def with_trace(self, trace: bool) -> "Scenario":
        """Toggle the per-block structured trace (``Kind.METRICS``)."""
        return replace(self, trace=trace)

    def with_no_fastpath(self, no_fastpath: bool = True) -> "Scenario":
        """Disable the ring's fused fast path for this run (differential use)."""
        return replace(self, no_fastpath=bool(no_fastpath))

    def with_block_sizes(self, sizes: dict[str, int]) -> "Scenario":
        """Pin block sizes instead of solving Algorithm 1 at build time.

        Refuses to silently overwrite sizes an earlier :meth:`solve` (or
        an earlier pin) already assigned differently — two conflicting
        sources of η must be an error, not a last-write-wins surprise.
        """
        conflicts = {
            s.name: (s.block_size, sizes[s.name])
            for s in self.system.streams
            if s.name in sizes and s.block_size is not None
            and s.block_size != sizes[s.name]
        }
        if conflicts:
            detail = ", ".join(
                f"{name}: {have} -> {want}"
                for name, (have, want) in sorted(conflicts.items())
            )
            raise ParameterError(
                f"with_block_sizes conflicts with already-assigned block "
                f"sizes ({detail}); build the scenario from the unsolved "
                f"system to pin different sizes"
            )
        return replace(self, system=self.system.with_block_sizes(sizes))

    # -- execution -------------------------------------------------------
    def solve(self, cache: Any | None = None) -> "Scenario":
        """Assign block sizes via Algorithm 1 if any stream lacks one.

        ``cache`` may be a :class:`repro.exp.SolverCache` (anything with a
        matching ``resolve(system)``) to memoize the solve across
        scenarios.
        """
        if all(s.block_size is not None for s in self.system.streams):
            return self
        result = self._resolve(cache)
        return replace(self, system=self.system.with_block_sizes(result.block_sizes))

    def build(self, cache: Any | None = None) -> "RunResult":
        """Solve (if needed), simulate, and wrap the outcome."""
        from .arch.harness import simulate_system

        solver: BlockSizeResult | None = None
        system = self.system
        if any(s.block_size is None for s in system.streams):
            solver = self._resolve(cache)
            system = system.with_block_sizes(solver.block_sizes)
        kwargs: dict[str, Any] = {
            "blocks": self.blocks,
            "trace": self.trace,
            "poll_interval": self.poll_interval,
            "context_mode": self.context_mode,
            "faults": self.faults,
            "watchdog": self.watchdog,
            "admission": self.admission,
            "spares": self.spares,
            "no_fastpath": self.no_fastpath,
        }
        if self.max_cycles is not None:
            kwargs["max_cycles"] = self.max_cycles
        run = simulate_system(system, **kwargs)
        return RunResult(scenario=self, run=run, solver=solver)

    def _resolve(self, cache: Any | None) -> BlockSizeResult:
        if cache is not None:
            return cache.resolve(self.system)
        return resolve_block_sizes(self.system)


def load_scenario(source: str | Path) -> Scenario:
    """Build a :class:`Scenario` from a registry URI, JSON path or JSON text.

    ``scenario://name?param=value`` references resolve through the
    :mod:`repro.app.scenarios` registry; anything else is treated as a
    system-JSON file path (or inline JSON text) exactly as before.
    """
    if isinstance(source, str) and source.lstrip().startswith("scenario://"):
        return Scenario.from_registry(source.strip())
    text = source
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        try:
            text = Path(source).read_text()
        except OSError as err:
            raise ParameterError(f"cannot read scenario config {source}: {err}") from err
    return Scenario(system=load_system(text))


@dataclass
class RunResult:
    """A completed scenario: simulation handle plus every derived view.

    The underlying :class:`~repro.arch.harness.SimulationRun` stays
    reachable as ``.run`` for anything the facade does not surface.
    """

    scenario: Scenario
    run: Any  # repro.arch.harness.SimulationRun (kept Any: arch imports api-free)
    solver: BlockSizeResult | None = None

    # -- raw views -------------------------------------------------------
    @property
    def system(self) -> GatewaySystem:
        """The simulated system (block sizes assigned)."""
        return self.run.system

    @property
    def horizon(self) -> int:
        return self.run.horizon

    @property
    def reconfig(self):
        """Reconfiguration manager of a churn run, else ``None``."""
        return self.run.reconfig

    @property
    def chain(self):
        return self.run.chain

    def metrics(self) -> dict[str, StreamMetrics]:
        """Per-stream observed metrics, derived from the run's counters."""
        return self.run.metrics()

    def utilization(self) -> GatewayUtilization:
        return self.run.utilization()

    def conformance(self, calibrated: bool = True) -> ConformanceReport:
        return self.run.conformance(calibrated=calibrated)

    def mode_conformance(self, calibrated: bool = True) -> ModalConformanceReport:
        return self.run.mode_conformance(calibrated=calibrated)

    def attributed_conformance(self, calibrated: bool = True) -> AttributedReport:
        return self.run.attributed_conformance(calibrated=calibrated)

    def fault_report(self) -> dict:
        return self.run.fault_report()

    @property
    def clean(self) -> bool:
        """Zero *unattributed* Eq. 2–5 violations.

        ``True`` when every conformance violation (per-mode-window in churn
        runs) is explained by an injected fault or an executed transition.
        A fault-free static run is ``clean`` iff it has no violations at
        all — this is the gate the scenario generator, the fuzz sweep and
        the ``repro scenarios run`` exit code all share.
        """
        return self.attributed_conformance().fully_attributed

    # -- unified report schema -------------------------------------------
    def report(self, kind: str = "run", calibrated: bool = True) -> dict[str, Any]:
        """The run as a versioned ``repro.report`` envelope.

        ``kind`` selects the body: ``"metrics"``, ``"conformance"``,
        ``"faults"`` and ``"reconfig"`` reproduce the historical CLI JSON
        shapes (plus the envelope fields); ``"run"`` (default) merges every
        available section — metrics, gateway utilization, conformance,
        solver stats, and, when armed, fault recovery and transitions.
        """
        if kind == "metrics":
            return make_report("metrics", self._metrics_body())
        if kind == "conformance":
            return make_report("conformance", {
                "horizon": self.horizon,
                **self._conformance_body(calibrated),
            })
        if kind == "faults":
            return make_report("faults", {
                "horizon": self.horizon,
                **self.fault_report(),
            })
        if kind == "reconfig":
            return make_report("reconfig", self._reconfig_body(calibrated))
        if kind != "run":
            raise ParameterError(
                f"unknown report kind {kind!r}; expected one of "
                "'run', 'metrics', 'conformance', 'faults', 'reconfig'"
            )
        body = self._metrics_body()
        body["conformance"] = self._conformance_body(calibrated)
        if self.solver is not None:
            body["solver"] = {
                "backend": self.solver.backend,
                "objective": self.solver.objective,
                "load": float(self.solver.load),
            }
        if self.run.injector is not None:
            body["faults"] = self.fault_report()
        if self.reconfig is not None:
            body["transitions"] = [
                t.to_dict() for t in self.reconfig.transitions
            ]
            body["remaps"] = [list(r) for r in self.chain.remaps]
        return make_report("run", body)

    def _conformance_body(self, calibrated: bool) -> dict[str, Any]:
        """Conformance section for the ``"run"``/``"conformance"`` reports.

        Static runs check against the solved model directly.  Churn runs
        must use the per-mode merged view: after an online re-solve the
        static model's block sizes are stale, and checking the final
        metrics against them is meaningless (and raises on any stream
        whose η changed mid-run).  Both views share the same keys.
        """
        if self.reconfig is not None:
            return self.mode_conformance(calibrated=calibrated).merged().to_dict()
        return self.conformance(calibrated=calibrated).to_dict()

    def _metrics_body(self) -> dict[str, Any]:
        return {
            "horizon": self.horizon,
            "streams": [m.to_dict() for m in self.metrics().values()],
            "gateway": self.utilization().to_dict(),
            "fastpath": self.run.fastpath(),
        }

    def _reconfig_body(self, calibrated: bool) -> dict[str, Any]:
        rm = self.reconfig
        if rm is None:
            raise ParameterError(
                "reconfig report needs a churn run (no joins/leaves scheduled "
                "and no spares provisioned)"
            )
        return {
            "horizon": self.horizon,
            "transitions": [t.to_dict() for t in rm.transitions],
            "remaps": [list(r) for r in self.chain.remaps],
            "modes": self.mode_conformance(calibrated=calibrated).to_dict(),
            "fully_attributed": self.attributed_conformance(
                calibrated=calibrated
            ).fully_attributed,
        }
