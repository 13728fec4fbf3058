"""Algorithm 1 — minimum block sizes, solved exactly in integers.

Substituting Eq. 4 into Eq. 5 yields, for every stream ``s ∈ S``:

    η_s  ≥  μ_s · Σ_{i∈S} [ R_i + (η_i + F) · c0 ]
    ⇔  η_s  ≥  μ_s · (c1_s + c0·F·n + c0·Σ_{i∈S} η_i)

with ``c0 = max(ε, ρ_A, δ)``, flush term ``F`` (= 2 for one accelerator)
and ``n = |S|``.  The paper prints the right-hand constant as
``c1 = R_s``; the substitution above gives ``c1 = Σ_i R_i``, which
coincides only under the (paper's prototype) assumption of equal
reconfiguration times when the sum is meant.  ``c1_mode`` selects the
general correct form (default) or the paper's literal one.

The paper states Algorithm 1 as an ILP minimising ``Σ_s η_s``.  Every
right-hand side is monotone in η (its coefficients ``c0·μ_s`` are
non-negative), so the integer feasible set is closed under componentwise
min and has a least element, which is the ILP optimum.  Each right-hand
side depends on η only through the total ``T = Σ η``: with
``need_s(T) = max(1, ⌈μ_s·(c1_s + c0·F·n + c0·T)⌉)`` the least element is
``need(T*)`` for the least integer ``T*`` with ``Σ_s need_s(T*) ≤ T*``.  :func:`compute_block_sizes`
finds it by iterating ``T ← Σ_s need_s(T)`` upward from the LP least point
(DESIGN.md §12: the proof, the ``n/(1 − load) + 2`` step bound and the
``eta_max`` early exit).

Infeasibility has a clean interpretation: the per-sample load
``c0 · Σ μ_i`` must stay below 1 (the shared chain is a single server);
as it approaches 1, block sizes blow up like ``1/(1 − load)``, and beyond
it no block size helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil

from .params import GatewaySystem, ParameterError

__all__ = [
    "BlockSizeResult",
    "compute_block_sizes",
    "resolve_block_sizes",
    "sharing_load",
    "system_fingerprint",
]


@dataclass(frozen=True)
class BlockSizeResult:
    """Solution of Algorithm 1."""

    block_sizes: dict[str, int]
    objective: int
    feasible: bool
    #: how the sizes were obtained: "exact" (Algorithm 1) or "given"
    backend: str
    load: Fraction
    #: identity of the (stream set, costs) the solution is valid for; set by
    #: :func:`resolve_block_sizes` so unchanged re-solves short-circuit
    fingerprint: tuple | None = field(default=None, compare=False)
    #: evaluations of ``Σ_s need_s(T)`` the solve took (≤ n/(1 − load) + 2)
    steps: int = field(default=0, compare=False)

    @property
    def total(self) -> int:
        return sum(self.block_sizes.values())


def sharing_load(system: GatewaySystem) -> Fraction:
    """Aggregate per-sample load ``c0 · Σ_s μ_s`` on the shared chain.

    Block-size computation is feasible iff this is strictly below 1.
    """
    return system.c0 * sum((s.throughput for s in system.streams), Fraction(0))


def _load_diagnosis(load: Fraction) -> str:
    return f"aggregate load c0·Σμ = {float(load):.4f}"


def compute_block_sizes(
    system: GatewaySystem,
    c1_mode: str = "sum",
    eta_max: int | None = None,
) -> BlockSizeResult:
    """Solve Algorithm 1 and return minimum block sizes.

    The answer is the least element of the integer feasible set, so it is
    the Σ-minimum and also componentwise minimal.  Raises
    :class:`ParameterError` with the load diagnosis when the load is ≥ 1
    or when the least element needs a block size above ``eta_max``.
    """
    if c1_mode not in ("sum", "paper"):
        raise ParameterError(f"c1_mode must be 'sum' or 'paper', got {c1_mode!r}")
    load = sharing_load(system)
    if load >= 1:
        raise ParameterError(
            f"infeasible: {_load_diagnosis(load)} ≥ 1 — the shared chain "
            "cannot serve the requested rates at any block size"
        )
    c0 = system.c0
    fixed = c0 * system.flush_stages * len(system.streams)
    r_sum = sum(s.reconfigure for s in system.streams)
    # need_s(T) = max(1, ⌈(b + a·T) / q⌉) with integer a, b, q per stream
    names: list[str] = []
    terms: list[tuple[int, int, int]] = []
    lp_rhs = Fraction(0)
    for s in system.streams:
        mu = s.throughput
        k = Fraction((r_sum if c1_mode == "sum" else s.reconfigure) + fixed)
        lp_rhs += mu * k
        q = mu.denominator * k.denominator
        names.append(s.name)
        terms.append((mu.numerator * c0 * k.denominator, mu.numerator * k.numerator, q))

    # ⌈T_LP⌉ ≤ T*: the relaxed least point is below every integer solution
    total = ceil(lp_rhs / (1 - load))
    steps = 0
    while True:
        steps += 1
        needs = [max(1, -((-b - a * total) // q)) for a, b, q in terms]
        if eta_max is not None:
            top = max(needs)
            if top > eta_max:
                # need_s is monotone in T and T ≤ T*: the least element,
                # and with it every feasible assignment, exceeds the cap
                name = names[needs.index(top)]
                raise ParameterError(
                    f"infeasible: η[{name}] needs at least {top} > eta_max "
                    f"{eta_max} ({_load_diagnosis(load)})"
                )
        grown = sum(needs)
        if grown <= total:
            break
        total = grown
    return BlockSizeResult(
        block_sizes=dict(zip(names, needs)),
        objective=grown,
        feasible=True,
        backend="exact",
        load=load,
        steps=steps,
    )


def system_fingerprint(system: GatewaySystem, c1_mode: str = "sum") -> tuple:
    """Everything the Algorithm-1 solution depends on, as a hashable key.

    Two systems with equal fingerprints have identical constraint sets, so
    a previous solution can be reused verbatim.
    """
    return (
        c1_mode,
        system.entry_copy,
        system.exit_copy,
        tuple((a.name, a.rho) for a in system.accelerators),
        tuple(sorted((s.name, s.throughput, s.reconfigure) for s in system.streams)),
    )


def resolve_block_sizes(
    system: GatewaySystem,
    previous: BlockSizeResult | None = None,
    c1_mode: str = "sum",
    eta_max: int | None = None,
) -> BlockSizeResult:
    """Re-solve Algorithm 1 for an online mode change.

    Identical stream set and costs (matched by :func:`system_fingerprint`)
    → the previous solution is returned unchanged (idempotence: the online
    path never churns block sizes without cause).  Otherwise the system is
    solved by :func:`compute_block_sizes`, and the result carries its
    fingerprint.
    """
    fp = system_fingerprint(system, c1_mode=c1_mode)
    if previous is not None and previous.fingerprint == fp:
        return previous
    result = compute_block_sizes(system, c1_mode=c1_mode, eta_max=eta_max)
    return replace(result, fingerprint=fp)
