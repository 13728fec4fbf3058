"""Structural and behavioural validation of (C)SDF graphs.

The analysis pipeline in :mod:`repro.core` refuses malformed inputs early;
this module groups the checks: consistency (balance equations), liveness
(deadlock-freedom over one iteration — sufficient for (C)SDF since the token
distribution after a complete iteration equals the initial one), and simple
structural sanity (dangling actors, zero-duration cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CSDFGraph, GraphError
from .repetition import repetition_vector
from .simulation import execute

__all__ = ["ValidationReport", "validate_graph", "check_liveness"]


@dataclass
class ValidationReport:
    """Aggregated validation outcome; ``ok`` is True when nothing failed."""

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


def check_liveness(graph: CSDFGraph) -> bool:
    """True when one complete iteration executes without deadlock.

    For consistent (C)SDF graphs, completing one iteration returns the token
    distribution to its initial value, so one deadlock-free iteration implies
    unbounded deadlock-free execution.
    """
    result = execute(graph, iterations=1, record=False, allow_deadlock=True)
    return not result.deadlocked


def validate_graph(graph: CSDFGraph, require_live: bool = True) -> ValidationReport:
    """Run the full validation battery and return a report."""
    report = ValidationReport()
    if len(graph) == 0:
        report.fail("graph has no actors")
        return report

    try:
        reps = repetition_vector(graph)
    except GraphError as err:
        report.fail(f"inconsistent: {err}")
        return report

    for name in graph.actors:
        if not graph.in_edges(name) and not graph.out_edges(name):
            report.warn(f"actor {name!r} is disconnected")

    for name, actor in graph.actors.items():
        if actor.total_duration == 0:
            report.warn(f"actor {name!r} has zero total firing duration")

    if max(reps.values()) > 1_000_000:
        report.warn("repetition vector is very large; HSDF expansion will be expensive")

    if require_live:
        try:
            if not check_liveness(graph):
                report.fail("graph deadlocks within the first iteration")
        except GraphError as err:
            report.fail(f"execution failed: {err}")
    return report
