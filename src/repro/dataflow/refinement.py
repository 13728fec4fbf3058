"""The-earlier-the-better refinement checks (Geilen & Tripakis; paper Sec. III).

A component ``C`` refines an abstraction ``Ĉ`` (written ``C ⊑ Ĉ``) when
earlier input-token arrivals never cause later output-token productions:

    ∀i, a(i) ≤ â(i)  ⇒  ∀j, b(j) ≤ b̂(j)

The practical check the paper uses — and the one the test-suite exercises to
show the hardware/CSDF/SDF stack is a refinement chain — compares the token
*production times* of the refined model against the abstraction under equal
(or earlier) inputs: every production in the refinement must be no later
than the corresponding production in the abstraction.

This module works on plain production-time sequences, on
:class:`~repro.dataflow.simulation.ExecutionResult` pairs, and provides the
transitivity helper used to conclude ``hardware ⊑ CSDF ⊑ SDF`` from the two
pairwise checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simulation import ExecutionResult

__all__ = ["RefinementReport", "refines_times", "refines_execution", "RefinementChain"]


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


def refines_times(
    refined: list[float],
    abstract: list[float],
    tolerance: float = 0,
) -> RefinementReport:
    """Check ``refined[j] ≤ abstract[j]`` for all common indices.

    The check is exact by default: a token any later than its abstract
    counterpart is a violation.  ``tolerance`` admits that much lateness,
    for callers comparing inexact (float) times.

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
        # an exact check adds no zero: ``Fraction + 0`` builds a Fraction
        if (b > b_hat + tolerance) if tolerance else b > b_hat:
            return RefinementReport(False, j, j, b, b_hat)
    return RefinementReport(True, len(abstract))


def refines_execution(
    refined: ExecutionResult,
    abstract: ExecutionResult,
    actors: dict[str, str] | list[str],
    tolerance: float = 0,
) -> RefinementReport:
    """Compare production times actor-by-actor between two executions.

    ``actors`` maps refined-actor name → abstract-actor name (or is a list of
    names present in both graphs).  The report aggregates: the first failing
    actor terminates the check.
    """
    mapping = {a: a for a in actors} if isinstance(actors, list) else dict(actors)
    compared = 0
    for ref_actor, abs_actor in mapping.items():
        rep = refines_times(
            refined.production_times(ref_actor),
            abstract.production_times(abs_actor),
            tolerance=tolerance,
        )
        compared += rep.compared
        if not rep:
            return RefinementReport(
                False, compared, rep.first_violation, rep.refined_time, rep.abstract_time
            )
    return RefinementReport(True, compared)


class RefinementChain:
    """Transitivity helper: ``A ⊑ B`` and ``B ⊑ C`` imply ``A ⊑ C``.

    The paper invokes exactly this step: "Due to transitivity of the ⊑
    relation we can conclude that also the hardware is a refinement of this
    SDF model."
    """

    def __init__(self) -> None:
        self._links: list[tuple[str, str, RefinementReport]] = []

    def add(self, refined: str, abstract: str, report: RefinementReport) -> None:
        self._links.append((refined, abstract, report))

    def holds(self, refined: str, abstract: str) -> bool:
        """Is there a verified chain from ``refined`` up to ``abstract``?"""
        frontier = {refined}
        verified = {(r, a) for r, a, rep in self._links if rep.holds}
        while True:
            reachable = {a for r, a in verified if r in frontier}
            if abstract in reachable:
                return True
            if reachable <= frontier:
                return False
            frontier |= reachable
