"""Algorithm 1 as the paper states it: an ILP over the block sizes.

For every stream ``s``::

    η_s − c0·μ_s·Σ_{i∈S}(η_i + F)  ≥  μ_s · c1_s,      1 ≤ η_s ≤ eta_max

minimising ``Σ_s η_s``, with ``c1_s = Σ_i R_i`` (``c1_mode="sum"``) or
``R_s`` (``"paper"``).  This is the formulation production solved with
HiGHS before the exact integer solver replaced it; it stays here as the
oracle the exact solver is checked against.
"""

from __future__ import annotations

from repro.core.params import GatewaySystem, ParameterError

from . import Model, Status, solve, sum_expr

__all__ = ["build_block_size_model", "ilp_block_sizes"]


def build_block_size_model(
    system: GatewaySystem,
    c1_mode: str = "sum",
    eta_max: int | None = None,
) -> Model:
    """Construct the Algorithm-1 ILP over variables ``eta:<stream>``."""
    if c1_mode not in ("sum", "paper"):
        raise ParameterError(f"c1_mode must be 'sum' or 'paper', got {c1_mode!r}")
    c0 = system.c0
    flush = system.flush_stages
    m = Model("algorithm1")
    etas = {
        s.name: m.int_var(f"eta:{s.name}", lo=1, hi=eta_max) for s in system.streams
    }
    r_sum = sum(s.reconfigure for s in system.streams)
    for s in system.streams:
        c1 = r_sum if c1_mode == "sum" else s.reconfigure
        mu = s.throughput
        lhs = etas[s.name] - c0 * mu * sum_expr(etas[i.name] + flush for i in system.streams)
        m.add(lhs >= mu * c1, name=f"tp:{s.name}")
    m.minimize(sum_expr(etas.values()))
    return m


def ilp_block_sizes(
    system: GatewaySystem,
    backend: str = "scipy",
    c1_mode: str = "sum",
    eta_max: int | None = None,
) -> dict[str, int] | None:
    """The ILP's block sizes, or ``None`` when it is not solved to optimality.

    HiGHS works in floating point: its answer is rounded to integers here
    and may be infeasible or non-minimal in exact arithmetic; callers check.
    """
    model = build_block_size_model(system, c1_mode=c1_mode, eta_max=eta_max)
    sol = solve(model, backend=backend)
    if sol.status != Status.OPTIMAL:
        return None
    return {s.name: int(round(sol[f"eta:{s.name}"])) for s in system.streams}
