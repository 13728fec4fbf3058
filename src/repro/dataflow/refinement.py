"""The-earlier-the-better refinement checks (Geilen & Tripakis; paper Sec. III).

A component ``C`` refines an abstraction ``Ĉ`` (written ``C ⊑ Ĉ``) when
earlier input-token arrivals never cause later output-token productions:

    ∀i, a(i) ≤ â(i)  ⇒  ∀j, b(j) ≤ b̂(j)

The practical check the paper uses — and the one the test-suite exercises to
show the hardware/CSDF/SDF stack is a refinement chain — compares the token
*production times* of the refined model against the abstraction under equal
(or earlier) inputs: every production in the refinement must be no later
than the corresponding production in the abstraction.

This module works on plain production-time sequences; two executions are
compared actor by actor through their
:meth:`~repro.dataflow.simulation.ExecutionResult.production_times`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RefinementReport", "refines_times"]


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of a refinement comparison."""

    holds: bool
    compared: int
    first_violation: int | None = None
    refined_time: float | None = None
    abstract_time: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def refines_times(refined: list[float], abstract: list[float]) -> RefinementReport:
    """Check ``refined[j] ≤ abstract[j]`` for all common indices.

    The check is exact: a token any later than its abstract counterpart is
    a violation.

    The refinement may produce *more* tokens than the abstraction within the
    observation window (it is faster); the abstraction producing more than
    the refinement within the same window is itself evidence of violation
    only when the refinement has terminated — callers compare equal-length
    windows, so we check the common prefix and require the refinement to
    cover at least as many productions as the abstraction.
    """
    if len(refined) < len(abstract):
        # The abstraction produced a token the refinement never produced in
        # the window: the refinement is observably slower.
        j = len(refined)
        return RefinementReport(False, j, j, None, abstract[j])
    for j, (b, b_hat) in enumerate(zip(refined, abstract)):
        if b > b_hat:
            return RefinementReport(False, j, j, b, b_hat)
    return RefinementReport(True, len(abstract))

