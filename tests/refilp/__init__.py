"""The ILP oracle for Algorithm 1: modelling language + two backends.

Production solves Algorithm 1 exactly in integers
(:func:`repro.core.blocksize_ilp.compute_block_sizes`); this package keeps
the paper's ILP formulation as an independent test oracle.
``solve(model)`` picks the default backend (SciPy/HiGHS MILP); pass
``backend="bnb"`` for the branch-and-bound cross-check.
:func:`build_block_size_model` builds the Algorithm-1 model and
:func:`ilp_block_sizes` solves it.
"""

from .branch_bound import solve_branch_bound
from .model import Constraint, LinExpr, Model, ModelError, Var, as_expr, sum_expr
from .scipy_backend import solve_scipy
from .solution import Solution, SolverError, Status

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "ModelError",
    "Solution",
    "SolverError",
    "Status",
    "Var",
    "as_expr",
    "build_block_size_model",
    "ilp_block_sizes",
    "solve",
    "solve_branch_bound",
    "solve_scipy",
    "sum_expr",
]

_BACKENDS = {
    "scipy": solve_scipy,
    "bnb": solve_branch_bound,
}


def solve(model: Model, backend: str = "scipy", **kwargs) -> Solution:
    """Solve a model with the named backend (``"scipy"`` or ``"bnb"``)."""
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise SolverError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    return fn(model, **kwargs)


# last: the Algorithm-1 oracle is built on ``solve`` above
from .algorithm1 import build_block_size_model, ilp_block_sizes  # noqa: E402
