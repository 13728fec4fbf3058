"""Maximum Cycle Mean / Maximum Cycle Ratio analysis of HSDF graphs.

For an HSDF graph the steady-state period of the self-timed execution equals
the *maximum cycle ratio*

    MCM = max over cycles C of ( Σ_{v∈C} ρ(v)  /  Σ_{e∈C} tokens(e) )

and the throughput of every actor is ``1 / MCM`` firings per time unit
(Sriram & Bhattacharyya).  The paper cites this machinery ([17]) as the
standard technique that *cannot* be used for its parametric block-size model;
we implement it both as a substrate for concrete-instance analysis and to
cross-validate the state-space throughput method.

The implementation uses Lawler's parametric search: a candidate ratio ``λ``
is feasible (``λ ≥ MCM``) iff the graph re-weighted with
``w(e) = ρ(src(e)) − λ·tokens(e)`` has no positive cycle.  The search is done
with exact :class:`~fractions.Fraction` arithmetic over the Stern–Brocot
bound: durations are first scaled to integers by the self-timed engine's
:func:`~repro.dataflow.simulation.time_scale`, so the scaled MCM is a ratio
(Σ durations)/(Σ tokens) with denominator at most the token count, and binary
search plus ``limit_denominator`` recovers it exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import CSDFGraph, GraphError, SDFGraph
from .hsdf import expand_to_hsdf
from .repetition import firing_repetition_vector
from .simulation import time_scale

__all__ = ["max_cycle_ratio", "mcm_throughput", "CycleRatioResult"]


def _to_fraction(x: float | int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**9)


class CycleRatioResult:
    """MCM value plus a witness critical cycle (as a list of node names)."""

    def __init__(self, ratio: Fraction, cycle: list[str]):
        self.ratio = ratio
        self.cycle = cycle

    def __repr__(self) -> str:  # pragma: no cover
        return f"CycleRatioResult(ratio={self.ratio}, cycle={self.cycle})"


def _positive_cycle(
    nodes: list[str],
    edges: list[tuple[str, str, int, int]],
    lam: Fraction,
) -> list[str] | None:
    """Bellman-Ford longest-path: return a cycle with Σρ − λ·Στokens > 0."""
    dist = {n: Fraction(0) for n in nodes}
    pred: dict[str, tuple[str, int]] = {}
    last_relaxed: str | None = None
    for _ in range(len(nodes)):
        last_relaxed = None
        for idx, (u, v, w, tok) in enumerate(edges):
            cand = dist[u] + w - lam * tok
            if cand > dist[v]:
                dist[v] = cand
                pred[v] = (u, idx)
                last_relaxed = v
        if last_relaxed is None:
            return None
    # A relaxation in the n-th round proves a positive cycle; walk back.
    node = last_relaxed
    for _ in range(len(nodes)):
        node = pred[node][0]
    cycle = [node]
    cur = pred[node][0]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur][0]
    cycle.reverse()
    return cycle


def max_cycle_ratio(hsdf: SDFGraph) -> CycleRatioResult:
    """Exact maximum cycle ratio of a unit-rate (HSDF) graph.

    Edges with zero tokens on a cycle with zero total tokens mean unbounded
    ratio (a zero-delay dependency cycle): reported as :class:`GraphError`.
    """
    for e in hsdf.edges.values():
        if e.total_production != 1 or e.total_consumption != 1:
            raise GraphError("max_cycle_ratio requires an HSDF (unit-rate) graph")
    nodes = sorted(hsdf.actors)
    durations = [_to_fraction(hsdf.actor(e.src).duration[0]) for e in hsdf.edges.values()]
    # integer durations bound the MCM's denominator by the token count
    scale = time_scale(durations)
    edges = [
        (e.src, e.dst, int(d * scale), e.tokens)
        for e, d in zip(hsdf.edges.values(), durations)
    ]
    if not edges:
        return CycleRatioResult(Fraction(0), [])

    total_w = sum((w for _u, _v, w, _tok in edges), Fraction(0))
    total_tokens = sum(tok for _u, _v, _w, tok in edges)
    # Zero-token positive cycle => infinite ratio (structural deadlock-free
    # zero-delay loop); detect with λ beyond any achievable ratio.
    hi_probe = total_w + 1
    if _positive_cycle(nodes, edges, hi_probe) is not None:
        raise GraphError("zero-token cycle with positive duration: unbounded cycle ratio")

    lo, hi = Fraction(0), hi_probe
    # Binary search until the interval isolates a unique fraction with
    # denominator ≤ total token count.
    bound = max(1, total_tokens)
    witness: list[str] = []
    while hi - lo > Fraction(1, 2 * bound * bound):
        mid = (lo + hi) / 2
        cyc = _positive_cycle(nodes, edges, mid)
        if cyc is not None:
            lo = mid
            witness = cyc
        else:
            hi = mid
    ratio = ((lo + hi) / 2).limit_denominator(bound)
    # `witness` is a positive cycle for some λ < MCM; refine: the critical
    # cycle is the one found at the last infeasible λ below MCM.
    if not witness:
        cyc = _positive_cycle(nodes, edges, ratio - Fraction(1, 4 * bound * bound))
        witness = cyc or []
    return CycleRatioResult(ratio / scale, witness)


def mcm_throughput(graph: CSDFGraph, actor: str | None = None) -> Fraction:
    """Steady-state firing rate of ``actor`` via HSDF expansion + MCM.

    Returns firings per time unit.  This is the classical alternative to
    :func:`repro.dataflow.statespace.steady_state_throughput` and the two are
    cross-checked in the test suite.
    """
    reps = firing_repetition_vector(graph)
    if actor is None:
        actor = sorted(graph.actors)[0]
    if actor not in reps:
        raise GraphError(f"unknown actor {actor!r}")
    hsdf = expand_to_hsdf(graph)
    mcm = max_cycle_ratio(hsdf).ratio
    if mcm == 0:
        raise GraphError("graph has no cycles with tokens; throughput unbounded")
    # One iteration (reps[actor] firings) per MCM period.
    return Fraction(reps[actor]) / mcm
