"""Bound-conformance checking: observed behaviour vs. the Eq. 2–5 bounds.

The paper's central claim is that the gateway architecture is a *temporal
refinement* of its dataflow model: every observed block must stay within
the closed-form bounds of :mod:`repro.core.timing`.  This module makes the
claim executable and observable — it compares the per-stream metrics
measured by :mod:`repro.sim.metrics` against ``τ̂`` (Eq. 2), ``ε̂`` (Eq. 3),
``γ`` (Eq. 4) and the ``η/γ`` throughput guarantee behind Eq. 5, reporting
the margin on every quantity and flagging any violation.  A violation means
the refinement is broken — a bug in either the model or the architecture —
so reports render it loudly and the CLI exits non-zero.

The cycle-level architecture has measured per-sample costs above the bare
parameters (ring injection, NI handshakes, C-FIFO pointer updates);
:func:`calibrated_system` instantiates the analysis with those measured
costs, exactly as the paper instantiates its analysis with the prototype's
measured ``ε = 15``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable

from ..sim.metrics import StreamMetrics, block_quantities
from .params import GatewaySystem, ParameterError
from .timing import (
    epsilon_hat,
    gamma,
    guaranteed_throughput,
    sample_latency_bound,
    tau_hat,
)

__all__ = [
    "StreamBounds",
    "Violation",
    "StreamConformance",
    "ConformanceReport",
    "Attribution",
    "AttributedReport",
    "ModeWindow",
    "ModeConformance",
    "ModalConformanceReport",
    "bounds_for",
    "check_stream",
    "check_conformance",
    "check_modal_conformance",
    "calibrated_system",
    "attribute_conformance",
    "attribute_modal_conformance",
    "violation_window",
    "slice_stream_window",
]

#: Calibration offsets measured on the cycle-level architecture model.
#:
#: Entry copy: one DMA ring-inject cycle, plus one worst-case cycle of
#: data-ring link-grant contention per sample — the C-FIFO read-pointer
#: flit that the entry gateway posts back to the producer wraps around the
#: ring through the accelerator→exit links and can delay the next data
#: flit's grant by one cycle (observed at ``ε = 8``; at ``ε = 15`` the
#: pointer flit drains inside the copy interval and the contention
#: vanishes, matching the ``ε + 1`` cost that
#: tests/integration/test_bounds_vs_sim.py calibrates against).
#: Accelerator: NI receive + send handshakes.  Exit copy: C-FIFO data +
#: write-pointer posted writes + one contention cycle.
ENTRY_OVERHEAD_CYCLES = 2
NI_OVERHEAD_CYCLES = 2
CFIFO_OVERHEAD_CYCLES = 3

#: Backwards-compatible alias (the bare inject cost without the
#: worst-case contention cycle).
RING_INJECT_CYCLES = 1


def calibrated_system(
    system: GatewaySystem,
    entry_overhead: int = ENTRY_OVERHEAD_CYCLES,
    ni_overhead: int = NI_OVERHEAD_CYCLES,
    cfifo_overhead: int = CFIFO_OVERHEAD_CYCLES,
) -> GatewaySystem:
    """The analysis model instantiated with the architecture's measured costs.

    ``ε_cal = ε + entry_overhead``, ``ρ_cal = ρ + ni_overhead`` per
    accelerator, ``δ_cal = δ + cfifo_overhead``.  The defaults are
    conservative: they upper-bound the per-sample costs observed on the
    cycle-level model across entry-copy, accelerator and block-size sweeps,
    so conformance checks against the calibrated bounds hold with margin —
    exactly as the paper instantiates its analysis with the prototype's
    measured ``ε = 15``.
    """
    return replace(
        system,
        accelerators=tuple(
            replace(a, rho=a.rho + ni_overhead) for a in system.accelerators
        ),
        entry_copy=system.entry_copy + entry_overhead,
        exit_copy=system.exit_copy + cfifo_overhead,
    )


@dataclass(frozen=True)
class StreamBounds:
    """The Eq. 2–5 bounds for one stream, in cycles (rates in samples/cycle)."""

    tau_hat: int
    epsilon_hat: int
    gamma: int
    guaranteed_throughput: Fraction
    sample_latency: Fraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "tau_hat": self.tau_hat,
            "epsilon_hat": self.epsilon_hat,
            "gamma": self.gamma,
            "guaranteed_throughput": float(self.guaranteed_throughput),
            "sample_latency": float(self.sample_latency),
        }


def bounds_for(system: GatewaySystem, stream_name: str) -> StreamBounds:
    """All closed-form bounds for ``stream_name`` (block sizes must be set)."""
    return StreamBounds(
        tau_hat=tau_hat(system, stream_name),
        epsilon_hat=epsilon_hat(system, stream_name),
        gamma=gamma(system, stream_name),
        guaranteed_throughput=guaranteed_throughput(system, stream_name),
        sample_latency=sample_latency_bound(system, stream_name),
    )


@dataclass(frozen=True)
class Violation:
    """One observed quantity exceeding its bound — a refinement bug."""

    stream: str
    quantity: str  # "block_time" | "wait" | "turnaround" | "throughput"
    observed: int | float | Fraction
    bound: int | float | Fraction
    block_index: int | None = None

    def __str__(self) -> str:
        where = f" (block {self.block_index})" if self.block_index is not None else ""
        if self.quantity == "throughput":
            return (
                f"VIOLATION {self.stream}: achieved throughput "
                f"{float(self.observed):.6f} < guaranteed {float(self.bound):.6f}"
            )
        return (
            f"VIOLATION {self.stream}: {self.quantity}{where} = "
            f"{self.observed} exceeds bound {self.bound}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "stream": self.stream,
            "quantity": self.quantity,
            "observed": float(self.observed),
            "bound": float(self.bound),
            "block_index": self.block_index,
        }


@dataclass(frozen=True)
class StreamConformance:
    """Observed-vs-bound comparison for one stream."""

    stream: str
    eta: int
    blocks_observed: int
    bounds: StreamBounds
    worst_block_time: int | None
    worst_wait: int | None
    worst_turnaround: int | None
    achieved_throughput: Fraction | None
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- margins (bound − worst observed; None when nothing was observed) --
    @property
    def block_time_margin(self) -> int | None:
        if self.worst_block_time is None:
            return None
        return self.bounds.tau_hat - self.worst_block_time

    @property
    def wait_margin(self) -> int | None:
        if self.worst_wait is None:
            return None
        return self.bounds.epsilon_hat - self.worst_wait

    @property
    def turnaround_margin(self) -> int | None:
        if self.worst_turnaround is None:
            return None
        return self.bounds.gamma - self.worst_turnaround

    @property
    def throughput_margin(self) -> Fraction | None:
        if self.achieved_throughput is None:
            return None
        return self.achieved_throughput - self.bounds.guaranteed_throughput

    def to_dict(self) -> dict[str, Any]:
        return {
            "stream": self.stream,
            "eta": self.eta,
            "blocks_observed": self.blocks_observed,
            "ok": self.ok,
            "bounds": self.bounds.to_dict(),
            "observed": {
                "worst_block_time": self.worst_block_time,
                "worst_wait": self.worst_wait,
                "worst_turnaround": self.worst_turnaround,
                "achieved_throughput": (
                    float(self.achieved_throughput)
                    if self.achieved_throughput is not None
                    else None
                ),
            },
            "margins": {
                "block_time": self.block_time_margin,
                "wait": self.wait_margin,
                "turnaround": self.turnaround_margin,
                "throughput": (
                    float(self.throughput_margin)
                    if self.throughput_margin is not None
                    else None
                ),
            },
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class ConformanceReport:
    """Conformance results for every checked stream."""

    streams: tuple[StreamConformance, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.streams)

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for s in self.streams for v in s.violations)

    def summary(self) -> str:
        """Fixed-width margins table; violations appended loudly."""
        header = (
            f"{'stream':<12} {'blocks':>6} {'τ obs/bound':>14} {'ε obs/bound':>14} "
            f"{'γ obs/bound':>14} {'thru obs≥guar':>16} {'status':>8}"
        )
        lines = [header, "-" * len(header)]
        for s in self.streams:
            def pair(obs, bound):
                return f"{obs if obs is not None else '-'}/{bound}"

            thru = (
                f"{float(s.achieved_throughput):.5f}≥{float(s.bounds.guaranteed_throughput):.5f}"
                if s.achieved_throughput is not None
                else "-"
            )
            lines.append(
                f"{s.stream:<12} {s.blocks_observed:>6} "
                f"{pair(s.worst_block_time, s.bounds.tau_hat):>14} "
                f"{pair(s.worst_wait, s.bounds.epsilon_hat):>14} "
                f"{pair(s.worst_turnaround, s.bounds.gamma):>14} "
                f"{thru:>16} {'OK' if s.ok else 'VIOLATED':>8}"
            )
        if self.ok:
            lines.append("all observed blocks within the Eq. 2–5 bounds "
                         "(temporal refinement holds)")
        else:
            lines.append("")
            lines.append(f"*** {len(self.violations)} BOUND VIOLATION(S) — "
                         "the temporal-refinement claim is broken ***")
            for v in self.violations:
                lines.append(f"  {v}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "streams": [s.to_dict() for s in self.streams],
            "violations": [v.to_dict() for v in self.violations],
        }


def check_stream(
    system: GatewaySystem, metrics: StreamMetrics, wait_slack: int = 0
) -> StreamConformance:
    """Compare one stream's observations against its bounds.

    ``system`` must contain a stream of the same name with a block size;
    when the simulated block size differs from the model's, that is a
    configuration error, not a refinement violation, so it raises.

    ``wait_slack`` is the scheduling-quantum allowance on the Eq. 3 wait
    check only: the entry gateway discovers admissibility by polling, so an
    observed completion-to-admission gap can exceed ``ε̂`` by up to one poll
    interval per admission in the window (callers typically pass
    ``poll_interval × |S|``).  The τ̂/γ/throughput checks take no slack.
    """
    spec = system.stream(metrics.name)
    if spec.block_size != metrics.eta:
        raise ParameterError(
            f"stream {metrics.name!r}: simulated η={metrics.eta} but the "
            f"model says η={spec.block_size}"
        )
    b = bounds_for(system, metrics.name)
    violations: list[Violation] = []
    for i, bt in enumerate(metrics.block_times):
        if bt > b.tau_hat:
            violations.append(Violation(metrics.name, "block_time", bt, b.tau_hat, i))
    wait_bound = b.epsilon_hat + wait_slack
    for i, w in enumerate(metrics.waits):
        if w > wait_bound:
            violations.append(Violation(metrics.name, "wait", w, wait_bound, i + 1))
    for i, t in enumerate(metrics.turnarounds):
        if t > b.gamma:
            violations.append(Violation(metrics.name, "turnaround", t, b.gamma, i + 1))
    if metrics.throughput is not None and metrics.throughput < b.guaranteed_throughput:
        violations.append(
            Violation(metrics.name, "throughput", metrics.throughput,
                      b.guaranteed_throughput)
        )
    return StreamConformance(
        stream=metrics.name,
        eta=metrics.eta,
        blocks_observed=len(metrics.block_times),
        bounds=b,
        worst_block_time=metrics.worst_block_time,
        worst_wait=metrics.worst_wait,
        worst_turnaround=metrics.worst_turnaround,
        achieved_throughput=metrics.throughput,
        violations=tuple(violations),
    )


def check_conformance(
    system: GatewaySystem, metrics: Iterable[StreamMetrics], wait_slack: int = 0
) -> ConformanceReport:
    """Check every stream's metrics against ``system``'s bounds."""
    return ConformanceReport(
        streams=tuple(check_stream(system, m, wait_slack=wait_slack) for m in metrics)
    )


# -- per-mode bound windows ---------------------------------------------------
#
# Under online reconfiguration the run is a sequence of *modes*: between two
# transitions the stream set and block sizes are fixed and the Eq. 2–5
# bounds of that mode's system apply.  Checking a churn run against any
# single system flags false violations (a block admitted under mode k and
# measured against mode k+1's bounds, or a wait spanning a transition's
# quiesce time); instead each mode is checked in isolation against its own
# bounds, with the wait/turnaround chains reset at every transition.


@dataclass(frozen=True)
class ModeWindow:
    """One steady mode of a reconfigurable run.

    The window covers blocks *admitted* in ``[start, end)`` (``end=None``
    = run end); transitions themselves (quiesce → reprogram) fall between
    windows, so no steady-state bound is asserted over them.
    """

    index: int
    start: int
    end: int | None
    system: GatewaySystem

    def contains(self, time: int) -> bool:
        return self.start <= time and (self.end is None or time < self.end)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "streams": {
                s.name: s.block_size for s in self.system.streams
            },
        }


def slice_stream_window(
    admissions: "list[int] | tuple[int, ...]",
    completions: "list[int] | tuple[int, ...]",
    start: int,
    end: int | None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (admissions, completions) pairs of blocks admitted in a window.

    Only completed blocks are returned (a block still in flight at run end
    has no measurable quantities); admissions are monotone, so the slice is
    contiguous.
    """
    idxs = [
        i
        for i, a in enumerate(admissions)
        if i < len(completions) and start <= a and (end is None or a < end)
    ]
    if not idxs:
        return (), ()
    k0, k1 = idxs[0], idxs[-1] + 1
    return tuple(admissions[k0:k1]), tuple(completions[k0:k1])


def _window_metrics(
    name: str, eta: int, admissions: tuple[int, ...],
    completions: tuple[int, ...], output_ratio: Fraction,
) -> StreamMetrics:
    """Per-window :class:`StreamMetrics` rebuilt from sliced timestamps."""
    n = len(completions)
    block_times, waits, turnarounds, throughput = block_quantities(
        eta, admissions, completions
    )
    return StreamMetrics(
        name=name,
        eta=eta,
        blocks_done=n,
        samples_in=eta * n,
        samples_out=int(eta * n * output_ratio),
        block_times=block_times,
        waits=waits,
        turnarounds=turnarounds,
        throughput=throughput,
        first_output_at=completions[0] if completions else None,
        last_output_at=completions[-1] if completions else None,
        in_high_water=None,
        out_high_water=None,
    )


@dataclass(frozen=True)
class ModeConformance:
    """Conformance of one mode window, plus its sliced timestamp spans."""

    window: ModeWindow
    report: ConformanceReport
    #: stream name -> (admissions, completions) sliced to the window; feeds
    #: :func:`attribute_conformance` so violation windows index correctly
    spans: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> dict[str, Any]:
        return {"window": self.window.to_dict(), **self.report.to_dict()}


@dataclass(frozen=True)
class ModalConformanceReport:
    """Eq. 2–5 conformance of a reconfigurable run, one report per mode."""

    modes: tuple[ModeConformance, ...]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.modes)

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for m in self.modes for v in m.report.violations)

    def merged(self) -> ConformanceReport:
        """All modes' per-stream results flattened into one report."""
        return ConformanceReport(
            streams=tuple(s for m in self.modes for s in m.report.streams)
        )

    def summary(self) -> str:
        lines = []
        for m in self.modes:
            end = m.window.end if m.window.end is not None else "end"
            lines.append(
                f"mode {m.window.index} [{m.window.start}, {end}): "
                f"{len(m.report.streams)} stream(s)"
            )
            lines.append(m.report.summary())
            lines.append("")
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines.append(f"modal conformance over {len(self.modes)} mode(s): {status}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "modes": [m.to_dict() for m in self.modes],
            "violations": [v.to_dict() for v in self.violations],
        }


def check_modal_conformance(
    windows: Iterable[ModeWindow],
    spans: dict[str, Any],
    wait_slack: int = 0,
    calibrate: bool = True,
) -> ModalConformanceReport:
    """Check each mode window against its own system's bounds.

    ``spans`` maps stream name → an object with ``admissions``/
    ``completions`` lists (a stream binding qualifies) or a plain pair.
    Streams absent from a window's system (not yet joined / already left)
    are skipped in that window; streams with no completed block in the
    window contribute an empty observation.
    """
    modes = []
    for window in windows:
        model = calibrated_system(window.system) if calibrate else window.system
        stream_reports = []
        window_spans: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for spec in model.streams:
            span = spans.get(spec.name)
            if span is None:
                continue
            if hasattr(span, "admissions"):
                admissions, completions = span.admissions, span.completions
                ratio = getattr(span, "output_ratio", Fraction(1))
            else:
                admissions, completions = span
                ratio = Fraction(1)
            adm, comp = slice_stream_window(
                admissions, completions, window.start, window.end
            )
            window_spans[spec.name] = (adm, comp)
            metrics = _window_metrics(
                spec.name, spec.block_size, adm, comp, ratio
            )
            stream_reports.append(
                check_stream(model, metrics, wait_slack=wait_slack)
            )
        modes.append(
            ModeConformance(
                window=window,
                report=ConformanceReport(streams=tuple(stream_reports)),
                spans=window_spans,
            )
        )
    return ModalConformanceReport(modes=tuple(modes))


def attribute_modal_conformance(
    modal: ModalConformanceReport,
    events: Iterable[dict[str, Any]],
    pad: int = 0,
    secondary: Iterable[dict[str, Any]] = (),
) -> AttributedReport:
    """Trace every mode's violations to injected faults / transition records.

    The per-mode sliced spans index each violation's ``block_index`` into
    the right timestamps; the merged result carries every mode's streams,
    so ``fully_attributed`` covers the whole churn run.

    Each mode's ``pad`` is widened by the transition gap separating it from
    the previous window (windows cover steady state only — the quiesce →
    reprogram interval falls between them).  A first-block violation right
    after a transition is then explained by an event that fired inside that
    gap: the transition itself, or a fault landing mid-switch.  Generated
    multi-mode scenarios lean on this — their churn schedules make
    gap-straddling violations routine rather than exceptional.
    """
    injected = tuple(events)
    secondary = tuple(secondary)
    attributions: list[Attribution] = []
    prev_end: int | None = None
    for mode in modal.modes:
        gap = 0
        if prev_end is not None and mode.window.start > prev_end:
            gap = mode.window.start - prev_end
        partial = attribute_conformance(
            mode.report, injected, mode.spans, pad=pad + gap,
            secondary=secondary,
        )
        attributions.extend(partial.attributions)
        prev_end = mode.window.end
    return AttributedReport(
        report=modal.merged(),
        attributions=tuple(attributions),
        injected=injected,
    )


# -- fault attribution -------------------------------------------------------
#
# Under fault injection, bound violations are *expected*; what matters is
# that every violation can be traced back to an injected fault.  A violation
# that no fault explains within its observation window is a genuine
# refinement bug hiding behind the noise.


@dataclass(frozen=True)
class Attribution:
    """One violation paired with the injected faults that explain it."""

    violation: Violation
    #: cycle window the violated quantity was observed over (``hi`` may be
    #: ``None`` for open-ended quantities such as throughput)
    window: tuple[int, int | None]
    #: injected-fault records (from ``FaultInjector.events``) active in the
    #: window; empty means the violation is unexplained
    causes: tuple[dict[str, Any], ...]

    @property
    def attributed(self) -> bool:
        return bool(self.causes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "violation": self.violation.to_dict(),
            "window": list(self.window),
            "causes": [dict(c) for c in self.causes],
            "attributed": self.attributed,
        }


@dataclass(frozen=True)
class AttributedReport:
    """A conformance report with every violation traced to its cause."""

    report: ConformanceReport
    attributions: tuple[Attribution, ...]
    #: every injected-fault record considered (chronological)
    injected: tuple[dict[str, Any], ...]

    @property
    def unattributed(self) -> tuple[Violation, ...]:
        """Violations no injected fault explains — genuine refinement bugs."""
        return tuple(a.violation for a in self.attributions if not a.attributed)

    @property
    def fully_attributed(self) -> bool:
        return not self.unattributed

    def summary(self) -> str:
        lines = [
            f"{len(self.injected)} fault(s) injected, "
            f"{len(self.attributions)} bound violation(s)"
        ]
        for a in self.attributions:
            tag = ("<- " + ", ".join(sorted({c["kind"] for c in a.causes}))
                   if a.attributed else "<- UNEXPLAINED")
            lines.append(f"  {a.violation} {tag}")
        if self.fully_attributed:
            lines.append("every violation is attributed to an injected fault")
        else:
            lines.append(
                f"*** {len(self.unattributed)} violation(s) have no injected "
                "cause — possible refinement bug ***"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.report.ok,
            "fully_attributed": self.fully_attributed,
            "injected": [dict(e) for e in self.injected],
            "attributions": [a.to_dict() for a in self.attributions],
            "unattributed": [v.to_dict() for v in self.unattributed],
        }


def violation_window(
    violation: Violation,
    admissions: "list[int] | tuple[int, ...]",
    completions: "list[int] | tuple[int, ...]",
) -> tuple[int, int | None]:
    """Cycle window over which a violated quantity was observed.

    Mirrors how :func:`check_stream` computes each quantity from the
    stream's admission/completion timestamps: block ``b``'s block time runs
    admission→completion of ``b``, its wait runs completion of ``b−1`` →
    admission of ``b``, its turnaround completion of ``b−1`` → completion
    of ``b``; throughput spans the whole run.
    """
    b = violation.block_index
    q = violation.quantity
    if q == "block_time" and b is not None and b < len(completions):
        return admissions[b], completions[b]
    if q == "wait" and b is not None and 0 < b < len(admissions):
        return completions[b - 1], admissions[b]
    if q == "turnaround" and b is not None and 0 < b < len(completions):
        return completions[b - 1], completions[b]
    return 0, None  # throughput (or malformed index): the whole run


def attribute_conformance(
    report: ConformanceReport,
    events: Iterable[dict[str, Any]],
    spans: dict[str, Any],
    pad: int = 0,
    secondary: Iterable[dict[str, Any]] = (),
) -> AttributedReport:
    """Trace each of ``report``'s violations to the injected faults.

    ``events`` are ``FaultInjector.events`` records (each with at least a
    ``"time"`` key).  ``spans`` maps stream name → an object with
    ``admissions``/``completions`` timestamp lists (a
    :class:`~repro.arch.gateway.StreamBinding` qualifies) or a plain
    ``(admissions, completions)`` pair.  A fault explains a violation when
    it fired inside the violation's observation window, widened by ``pad``
    cycles on the low side (faults propagate forward in time only).  An
    event spanning an interval — a reconfiguration transition carries
    ``"until"`` (its completion time) alongside ``"time"`` (its request) —
    matches when the *interval* overlaps the window, so a transition that
    started before a window but completed inside it still explains the
    violations it caused.

    ``secondary`` events (e.g. recovery-log records — a degrade/readmit
    pause is fault fallout, not a refinement bug) may also explain a
    violation but are not listed in :attr:`AttributedReport.injected`.
    """
    injected = tuple(events)
    candidates = injected + tuple(secondary)
    attributions = []
    for violation in report.violations:
        span = spans.get(violation.stream)
        if span is None:
            admissions: tuple[int, ...] = ()
            completions: tuple[int, ...] = ()
        elif hasattr(span, "admissions"):
            admissions, completions = span.admissions, span.completions
        else:
            admissions, completions = span
        lo, hi = violation_window(violation, admissions, completions)
        causes = tuple(
            e for e in candidates
            if e.get("until", e["time"]) >= lo - pad
            and (hi is None or e["time"] <= hi)
        )
        attributions.append(
            Attribution(violation=violation, window=(lo, hi), causes=causes)
        )
    return AttributedReport(
        report=report, attributions=tuple(attributions), injected=injected
    )
