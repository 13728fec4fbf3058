"""Solver-independent solution record."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Solution", "SolverError", "Status"]


class SolverError(RuntimeError):
    """Raised when a backend cannot process the model at all."""


class Status:
    """Solution status constants."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"  # node/iteration limit hit before proving optimality


@dataclass
class Solution:
    """Outcome of solving a :class:`~tests.refilp.model.Model`."""

    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    backend: str = ""
    nodes_explored: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == Status.OPTIMAL

    def __getitem__(self, var_name: str) -> float:
        return self.values[var_name]

    def as_ints(self) -> dict[str, int]:
        """Values rounded to integers (valid for integer variables)."""
        return {k: int(round(v)) for k, v in self.values.items()}
