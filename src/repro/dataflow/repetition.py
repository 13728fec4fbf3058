"""Repetition vectors and consistency for (C)SDF graphs.

A (C)SDF graph is *consistent* when the balance equations

    q[src] * total_production(e) == q[dst] * total_consumption(e)

have a non-trivial solution ``q`` (one entry per actor).  For CSDF the
quanta totals are taken over one full cyclo-static cycle of phases, so
``q[a]`` counts *cycles*; the number of individual firings per iteration is
``q[a] * phases(a)``.

Only consistent graphs can execute within bounded memory; the analysis in
:mod:`repro.core` refuses inconsistent models up front.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .graph import CSDFGraph, GraphError

__all__ = ["repetition_vector", "firing_repetition_vector", "is_consistent"]


def repetition_vector(graph: CSDFGraph) -> dict[str, int]:
    """Smallest positive integer solution of the balance equations.

    For CSDF the entries count full cyclo-static *cycles* per iteration.
    Raises :class:`GraphError` on inconsistency or on an actor-free graph.
    """
    if len(graph) == 0:
        raise GraphError("repetition vector of an empty graph")
    ratios: dict[str, Fraction] = {}
    adj: dict[str, list[tuple[str, Fraction]]] = {a: [] for a in graph.actors}
    for e in graph.edges.values():
        # q[dst] = q[src] * prod/cons
        ratio = Fraction(e.total_production, e.total_consumption)
        adj[e.src].append((e.dst, ratio))
        adj[e.dst].append((e.src, 1 / ratio))

    for component in graph.undirected_components():
        start = sorted(component)[0]
        ratios[start] = Fraction(1)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt, ratio in adj[node]:
                value = ratios[node] * ratio
                if nxt in ratios:
                    if ratios[nxt] != value:
                        raise GraphError(
                            f"graph {graph.name!r} is inconsistent at actor {nxt!r}: "
                            f"{ratios[nxt]} != {value}"
                        )
                else:
                    ratios[nxt] = value
                    stack.append(nxt)

    # Verify every edge (covers multi-edges between already-visited actors).
    for e in graph.edges.values():
        if ratios[e.src] * e.total_production != ratios[e.dst] * e.total_consumption:
            raise GraphError(f"graph {graph.name!r} is inconsistent on edge {e.name!r}")

    denom = lcm(*(r.denominator for r in ratios.values()))
    ints = {a: int(r * denom) for a, r in ratios.items()}
    divisor = 0
    for v in ints.values():
        divisor = gcd(divisor, v)
    return {a: v // divisor for a, v in ints.items()}


def firing_repetition_vector(graph: CSDFGraph) -> dict[str, int]:
    """Per-actor number of *firings* (phases executed) in one graph iteration."""
    q = repetition_vector(graph)
    return {a: q[a] * graph.actor(a).phases for a in q}


def is_consistent(graph: CSDFGraph) -> bool:
    """True when the balance equations admit a non-trivial solution."""
    try:
        repetition_vector(graph)
        return True
    except GraphError:
        return False
