"""Lowering of :class:`~tests.refilp.model.Model` onto ``scipy.optimize.milp``.

HiGHS (shipped inside SciPy) solves the mixed-integer program directly; this
backend is the oracle's default.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import Model, ModelError
from .solution import Solution, SolverError, Status

__all__ = ["solve_scipy"]


def _lower(model: Model):
    """Build (c, const, A, lb, ub, bounds, integrality, order) matrices."""
    if model.objective is None:
        raise ModelError(f"model {model.name!r} has no objective")
    order = sorted(model.variables)
    index = {name: i for i, name in enumerate(order)}
    n = len(order)
    if n == 0:
        raise ModelError(f"model {model.name!r} has no variables")

    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for name, coef in model.objective.coeffs.items():
        c[index[name]] = sign * float(coef)

    rows, lbs, ubs = [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        for name, coef in con.expr.coeffs.items():
            row[index[name]] = float(coef)
        rhs = -float(con.expr.constant)
        if con.sense == "<=":
            lbs.append(-np.inf)
            ubs.append(rhs)
        elif con.sense == ">=":
            lbs.append(rhs)
            ubs.append(np.inf)
        else:
            lbs.append(rhs)
            ubs.append(rhs)
        rows.append(row)

    lo = np.array(
        [-np.inf if model.variables[v].lo is None else float(model.variables[v].lo) for v in order]
    )
    hi = np.array(
        [np.inf if model.variables[v].hi is None else float(model.variables[v].hi) for v in order]
    )
    integrality = np.array([1 if model.variables[v].integer else 0 for v in order])
    return c, rows, lbs, ubs, lo, hi, integrality, order, sign


def solve_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """Solve with SciPy's HiGHS MILP solver."""
    c, rows, lbs, ubs, lo, hi, integrality, order, sign = _lower(model)
    constraints = (
        [LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs))] if rows else []
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    try:
        res = milp(
            c,
            constraints=constraints,
            bounds=Bounds(lo, hi),
            integrality=integrality,
            options=options,
        )
    except Exception as err:  # pragma: no cover - scipy internal failure
        raise SolverError(f"scipy milp failed: {err}") from err

    if res.status == 2:
        return Solution(Status.INFEASIBLE, backend="scipy")
    if res.status == 3:
        return Solution(Status.UNBOUNDED, backend="scipy")
    if res.status == 1:  # iteration/time limit
        return Solution(Status.LIMIT, backend="scipy")
    if res.status == 4:  # HiGHS: "unbounded or infeasible"
        return Solution(Status.UNBOUNDED, backend="scipy")
    if not res.success:  # pragma: no cover - defensive
        raise SolverError(f"scipy milp: unexpected status {res.status}: {res.message}")

    values = {name: float(x) for name, x in zip(order, res.x)}
    objective = sign * float(res.fun)
    # snap integer variables that HiGHS returns within tolerance
    for name in order:
        if model.variables[name].integer:
            values[name] = float(round(values[name]))
    return Solution(Status.OPTIMAL, objective=objective, values=values, backend="scipy")
