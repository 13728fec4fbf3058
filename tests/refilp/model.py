"""A small integer-linear-programming modelling layer.

The paper's Algorithm 1 is an ILP over the block sizes ``η_s``.  This module
provides the modelling vocabulary (variables, linear expressions, constraints
and a model container) used by :mod:`tests.refilp.algorithm1`, decoupled
from any particular solver.  Two interchangeable backends solve the models:

* :mod:`tests.refilp.scipy_backend` — lowers to ``scipy.optimize.milp`` (HiGHS),
* :mod:`tests.refilp.branch_bound` — a pure-Python branch-and-bound over the
  LP relaxation (``scipy.optimize.linprog``), kept as an independent
  cross-check.

Expressions support natural arithmetic::

    m = Model("blocks")
    eta = [m.int_var(f"eta{s}", lo=1) for s in range(4)]
    m.add(eta[0] - 2 * sum_expr(eta) >= 5, name="tp0")
    m.minimize(sum_expr(eta))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Iterable, Mapping

__all__ = [
    "Var",
    "LinExpr",
    "Constraint",
    "Model",
    "ModelError",
    "sum_expr",
]

Number = (int, float, Fraction)


class ModelError(ValueError):
    """Raised for malformed models (unknown variables, empty objectives…)."""


class LinExpr:
    """An affine expression: ``Σ coeff_i · var_i + constant``.

    Immutable; arithmetic returns new expressions.  Coefficients are kept as
    exact :class:`~fractions.Fraction` where possible.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(
        self,
        coeffs: Mapping[str, Fraction] | None = None,
        constant: Fraction | float | int = 0,
    ) -> None:
        self.coeffs: dict[str, Fraction] = {
            k: _frac(v) for k, v in (coeffs or {}).items() if v != 0
        }
        self.constant = _frac(constant)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        other = as_expr(other)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return LinExpr(coeffs, self.constant + other.constant)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({k: -v for k, v in self.coeffs.items()}, -self.constant)

    def __sub__(self, other) -> "LinExpr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "LinExpr":
        return as_expr(other) + (-self)

    def __mul__(self, factor) -> "LinExpr":
        if not isinstance(factor, Number):
            raise ModelError("linear expressions can only be scaled by constants")
        f = _frac(factor)
        return LinExpr({k: v * f for k, v in self.coeffs.items()}, self.constant * f)

    __rmul__ = __mul__

    def __truediv__(self, factor) -> "LinExpr":
        if not isinstance(factor, Number):
            raise ModelError("linear expressions can only be divided by constants")
        return self * (Fraction(1) / _frac(factor))

    # -- relations ---------------------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint(self - as_expr(other), "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - as_expr(other), ">=")

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - as_expr(other), "==")

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ---------------------------------------------------------
    def value(self, assignment: Mapping[str, Real]) -> Fraction:
        """Evaluate under a variable assignment."""
        total = self.constant
        for k, v in self.coeffs.items():
            if k not in assignment:
                raise ModelError(f"no value for variable {k!r}")
            total += v * _frac(assignment[k])
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = [f"{v}*{k}" for k, v in sorted(self.coeffs.items())]
        if self.constant or not terms:
            terms.append(str(self.constant))
        return " + ".join(terms)


class Var(LinExpr):
    """A decision variable (an expression with a single unit coefficient)."""

    __slots__ = ("name", "lo", "hi", "integer")

    def __init__(
        self,
        name: str,
        lo: float | int | None = 0,
        hi: float | int | None = None,
        integer: bool = True,
    ) -> None:
        super().__init__({name: Fraction(1)}, 0)
        self.name = name
        self.lo = lo
        self.hi = hi
        self.integer = integer
        if lo is not None and hi is not None and lo > hi:
            raise ModelError(f"variable {name!r}: empty domain [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class Constraint:
    """``expr (<=|>=|==) 0`` in normalised form, optionally named."""

    expr: LinExpr
    sense: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ModelError(f"bad constraint sense {self.sense!r}")

    def named(self, name: str) -> "Constraint":
        return Constraint(self.expr, self.sense, name)

    def satisfied(self, assignment: Mapping[str, Real], tol: float = 1e-9) -> bool:
        v = float(self.expr.value(assignment))
        if self.sense == "<=":
            return v <= tol
        if self.sense == ">=":
            return v >= -tol
        return abs(v) <= tol


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise ModelError(f"not a number: {x!r}")


def as_expr(x) -> LinExpr:
    """Coerce a constant or expression into a :class:`LinExpr`."""
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, Number):
        return LinExpr({}, x)
    raise ModelError(f"cannot interpret {x!r} as a linear expression")


def sum_expr(items: Iterable[LinExpr | int | float]) -> LinExpr:
    """Sum of expressions (avoids ``sum()``'s 0 + expr start issue cleanly)."""
    total = LinExpr()
    for item in items:
        total = total + as_expr(item)
    return total


@dataclass
class Model:
    """An ILP: variables, constraints and one objective."""

    name: str = "model"
    variables: dict[str, Var] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    objective: LinExpr | None = None
    sense: str = "min"

    # -- building ----------------------------------------------------------
    def int_var(self, name: str, lo: int | None = 0, hi: int | None = None) -> Var:
        """Declare an integer variable."""
        return self._add_var(Var(name, lo, hi, integer=True))

    def real_var(self, name: str, lo: float | None = 0, hi: float | None = None) -> Var:
        """Declare a continuous variable."""
        return self._add_var(Var(name, lo, hi, integer=False))

    def _add_var(self, var: Var) -> Var:
        if var.name in self.variables:
            raise ModelError(f"duplicate variable {var.name!r}")
        self.variables[var.name] = var
        return var

    def add(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Add a constraint (checks that all variables are declared)."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add() expects a Constraint (did you compare with a plain number "
                "on the left of <=/>=?)"
            )
        unknown = set(constraint.expr.coeffs) - set(self.variables)
        if unknown:
            raise ModelError(f"constraint uses undeclared variables: {sorted(unknown)}")
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr: LinExpr) -> None:
        self._set_objective(expr, "min")

    def maximize(self, expr: LinExpr) -> None:
        self._set_objective(expr, "max")

    def _set_objective(self, expr: LinExpr, sense: str) -> None:
        expr = as_expr(expr)
        unknown = set(expr.coeffs) - set(self.variables)
        if unknown:
            raise ModelError(f"objective uses undeclared variables: {sorted(unknown)}")
        self.objective = expr
        self.sense = sense

    # -- checking ------------------------------------------------------------
    def check(self, assignment: Mapping[str, Real], tol: float = 1e-9) -> list[str]:
        """Names/indices of constraints violated by ``assignment``."""
        violated = []
        missing = {v for v in self.variables if v not in assignment}
        for i, c in enumerate(self.constraints):
            if set(c.expr.coeffs) & missing:
                continue  # reported below as missing:<var>
            if not c.satisfied(assignment, tol):
                violated.append(c.name or f"#{i}")
        for v in self.variables.values():
            x = assignment.get(v.name)
            if x is None:
                violated.append(f"missing:{v.name}")
                continue
            if v.lo is not None and x < v.lo - tol:
                violated.append(f"lb:{v.name}")
            if v.hi is not None and x > v.hi + tol:
                violated.append(f"ub:{v.name}")
            if v.integer and abs(x - round(x)) > tol:
                violated.append(f"int:{v.name}")
        return violated
