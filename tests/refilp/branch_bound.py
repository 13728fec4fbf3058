"""Pure-Python branch-and-bound ILP solver over the LP relaxation.

An independent second backend for :class:`~tests.refilp.model.Model`: the
LP relaxations are solved with ``scipy.optimize.linprog`` (HiGHS simplex) and
integrality is restored by best-first branch-and-bound on the most
fractional variable.  It exists to cross-check
:mod:`tests.refilp.scipy_backend` (the two must agree on every Algorithm-1
instance — asserted in the test suite).
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from .model import Model, ModelError
from .solution import Solution, SolverError, Status

__all__ = ["solve_branch_bound"]

_INT_TOL = 1e-6


def _lower(model: Model):
    if model.objective is None:
        raise ModelError(f"model {model.name!r} has no objective")
    order = sorted(model.variables)
    if not order:
        raise ModelError(f"model {model.name!r} has no variables")
    index = {name: i for i, name in enumerate(order)}
    n = len(order)
    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for name, coef in model.objective.coeffs.items():
        c[index[name]] = sign * float(coef)

    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []
    a_eq: list[np.ndarray] = []
    b_eq: list[float] = []
    for con in model.constraints:
        row = np.zeros(n)
        for name, coef in con.expr.coeffs.items():
            row[index[name]] = float(coef)
        rhs = -float(con.expr.constant)
        if con.sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif con.sense == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [
        (
            None if model.variables[v].lo is None else float(model.variables[v].lo),
            None if model.variables[v].hi is None else float(model.variables[v].hi),
        )
        for v in order
    ]
    return c, a_ub, b_ub, a_eq, b_eq, bounds, order, sign


def _solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds):
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    return res


def solve_branch_bound(model: Model, max_nodes: int = 100_000) -> Solution:
    """Best-first branch-and-bound; exact on models HiGHS LP solves exactly."""
    c, a_ub, b_ub, a_eq, b_eq, bounds, order, sign = _lower(model)
    int_mask = [model.variables[v].integer for v in order]

    root = _solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
    if root.status == 2:
        return Solution(Status.INFEASIBLE, backend="bnb")
    if root.status == 3:
        return Solution(Status.UNBOUNDED, backend="bnb")
    if root.status != 0:  # pragma: no cover - defensive
        raise SolverError(f"linprog failed at root: {root.message}")

    counter = itertools.count()
    # heap of (lp_bound, tiebreak, bounds, lp_result)
    heap = [(root.fun, next(counter), bounds, root)]
    best_obj = math.inf
    best_x = None
    nodes = 0

    while heap:
        lp_bound, _tie, nb, res = heapq.heappop(heap)
        if lp_bound >= best_obj - 1e-12:
            continue  # pruned: cannot improve the incumbent
        nodes += 1
        if nodes > max_nodes:
            break

        # most fractional integer variable
        frac_idx, frac_dist = -1, 0.0
        for i, is_int in enumerate(int_mask):
            if not is_int:
                continue
            x = res.x[i]
            dist = abs(x - round(x))
            if dist > _INT_TOL and dist > frac_dist:
                frac_idx, frac_dist = i, dist

        if frac_idx < 0:
            # integral solution
            if res.fun < best_obj:
                best_obj = res.fun
                best_x = res.x.copy()
            continue

        x = res.x[frac_idx]
        for lo_new, hi_new in (
            (nb[frac_idx][0], math.floor(x)),
            (math.ceil(x), nb[frac_idx][1]),
        ):
            lo_cur, hi_cur = nb[frac_idx]
            lo_eff = lo_new if lo_new is not None else lo_cur
            hi_eff = hi_new if hi_new is not None else hi_cur
            if (
                lo_eff is not None
                and hi_eff is not None
                and lo_eff > hi_eff
            ):
                continue
            child_bounds = list(nb)
            child_bounds[frac_idx] = (lo_eff, hi_eff)
            child = _solve_lp(c, a_ub, b_ub, a_eq, b_eq, child_bounds)
            if child.status == 0 and child.fun < best_obj - 1e-12:
                heapq.heappush(heap, (child.fun, next(counter), child_bounds, child))

    if best_x is None:
        if nodes > max_nodes:
            return Solution(Status.LIMIT, backend="bnb", nodes_explored=nodes)
        return Solution(Status.INFEASIBLE, backend="bnb", nodes_explored=nodes)

    values = {}
    for name, x, is_int in zip(order, best_x, int_mask):
        values[name] = float(round(x)) if is_int else float(x)
    status = Status.OPTIMAL if nodes <= max_nodes else Status.LIMIT
    return Solution(
        status,
        objective=sign * float(best_obj),
        values=values,
        backend="bnb",
        nodes_explored=nodes,
    )
