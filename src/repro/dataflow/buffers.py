"""Buffer-capacity modelling and minimisation for (C)SDF graphs.

The paper models a bounded buffer as "a forward edge with complementary back
edge containing a number of initial tokens denoting the depth of the buffer"
(Section V-A) and uses the buffer-minimisation technique of Geilen, Basten &
Stuijk [20] to compute minimum capacities that sustain a required throughput.
Crucially, Section V-E demonstrates that the **minimum capacities are
non-monotone in the block size** ``η_s`` — the motivation for the ILP of
Algorithm 1 followed by buffer sizing.

This module implements:

* :func:`bound_channel` / :func:`bounded_graph` — add capacity back-edges,
* :func:`min_capacity_single` — exact minimum capacity of one channel under a
  throughput constraint (linear scan; valid because throughput is monotone
  in buffer capacity),
* :func:`min_capacities` — exact minimum *total* capacity over several
  channels (best-first search over capacity vectors, as in [20] but via our
  state-space throughput oracle).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graph import CSDFGraph, GraphError
from .statespace import steady_state_throughput

__all__ = [
    "bound_channel",
    "bounded_graph",
    "min_capacity_single",
    "min_capacity_for_liveness",
    "min_capacities",
    "BufferSizingResult",
    "capacity_lower_bound",
]

_BACK_PREFIX = "cap:"


def bound_channel(graph: CSDFGraph, edge_name: str, capacity: int) -> CSDFGraph:
    """Return a copy of ``graph`` where ``edge_name`` has bounded capacity.

    The bound is modelled with a back edge carrying ``capacity - tokens``
    initial tokens (free spaces).  The producer consumes space at firing
    start; the consumer releases it at firing end — exactly the conservative
    buffer model used by the paper's analysis.
    """
    e = graph.edge(edge_name)
    if capacity < e.tokens:
        raise GraphError(
            f"capacity {capacity} below initial token count {e.tokens} on {edge_name!r}"
        )
    g = graph.with_edge_tokens({})  # deep copy
    g.add_edge(
        e.dst,
        e.src,
        production=e.consumption,
        consumption=e.production,
        tokens=capacity - e.tokens,
        name=f"{_BACK_PREFIX}{edge_name}",
    )
    return g


def bounded_graph(graph: CSDFGraph, capacities: dict[str, int]) -> CSDFGraph:
    """Apply :func:`bound_channel` for every ``edge -> capacity`` entry."""
    g = graph
    for edge_name, cap in sorted(capacities.items()):
        g = bound_channel(g, edge_name, cap)
    return g


def capacity_lower_bound(graph: CSDFGraph, edge_name: str) -> int:
    """A capacity below which the channel cannot even fire both endpoints.

    The producer must fit its largest burst and the consumer must see its
    largest demand; initial tokens must fit as well.
    """
    e = graph.edge(edge_name)
    return max(max(e.production), max(e.consumption), e.tokens, 1)


@dataclass(frozen=True)
class BufferSizingResult:
    """Minimum capacities plus the throughput they achieve."""

    capacities: dict[str, int]
    throughput: Fraction
    actor: str

    @property
    def total(self) -> int:
        return sum(self.capacities.values())


def _rate_with(graph: CSDFGraph, caps: dict[str, int], actor: str | None) -> Fraction:
    bounded = bounded_graph(graph, caps)
    res = steady_state_throughput(bounded, actor=actor)
    return res.firing_rate


def min_capacity_single(
    graph: CSDFGraph,
    edge_name: str,
    target: Fraction | None = None,
    actor: str | None = None,
    cap_limit: int = 4096,
) -> BufferSizingResult:
    """Exact minimum capacity of one channel reaching ``target`` throughput.

    ``target=None`` means *maximum achievable* throughput: the scan runs
    until adding one more slot no longer improves the rate (valid because
    throughput is monotonically non-decreasing and eventually saturates in
    the buffer capacity).
    """
    if actor is None:
        actor = sorted(graph.actors)[0]
    lo = capacity_lower_bound(graph, edge_name)

    if target is not None:
        for cap in range(lo, cap_limit + 1):
            rate = _rate_with(graph, {edge_name: cap}, actor)
            if rate >= target:
                return BufferSizingResult({edge_name: cap}, rate, actor)
        raise GraphError(
            f"no capacity ≤ {cap_limit} on {edge_name!r} reaches throughput {target}"
        )

    # Saturation search for the maximum-throughput capacity.
    best_rate = Fraction(-1)
    best_cap = lo
    stall = 0
    for cap in range(lo, cap_limit + 1):
        rate = _rate_with(graph, {edge_name: cap}, actor)
        if rate > best_rate:
            best_rate, best_cap, stall = rate, cap, 0
        else:
            stall += 1
            # Throughput saturates once the channel stops being the
            # bottleneck; a run of non-improving steps certifies it.
            if stall >= 8:
                return BufferSizingResult({edge_name: best_cap}, best_rate, actor)
    return BufferSizingResult({edge_name: best_cap}, best_rate, actor)


def min_capacity_for_liveness(
    graph: CSDFGraph, edge_name: str, cap_limit: int = 4096
) -> int:
    """Smallest channel capacity under which the graph is deadlock-free.

    For a single-phase producer/consumer pair with quanta ``(p, c)`` this is
    the classical ``p + c - gcd(p, c)``; the paper's Fig. 8b table
    (η = 1..5 → α = 5, 6, 7, 8, 5 against a consumer of 5) is exactly this
    quantity, and its non-monotonicity in η is the paper's Section V-E
    observation.
    """
    from .validate import check_liveness

    lo = capacity_lower_bound(graph, edge_name)
    for cap in range(lo, cap_limit + 1):
        if check_liveness(bound_channel(graph, edge_name, cap)):
            return cap
    raise GraphError(
        f"no capacity ≤ {cap_limit} on {edge_name!r} makes the graph live"
    )


def min_capacities(
    graph: CSDFGraph,
    edge_names: list[str],
    target: Fraction,
    actor: str | None = None,
    cap_limit: int = 512,
    max_states: int = 100_000,
) -> BufferSizingResult:
    """Minimum **total** capacity over several channels reaching ``target``.

    Best-first search over capacity vectors ordered by total size; since
    throughput is monotone in each capacity, the first vector reaching the
    target has minimum total.  Exponential in the number of channels — meant
    for the small graphs of the paper's models (≤ 4 channels).
    """
    if not edge_names:
        raise GraphError("min_capacities needs at least one channel")
    if actor is None:
        actor = sorted(graph.actors)[0]
    lows = tuple(capacity_lower_bound(graph, e) for e in edge_names)

    start = lows
    seen = {start}
    explored = 0
    counter = itertools.count()
    heap: list[tuple[int, int, tuple[int, ...]]] = [(sum(start), next(counter), start)]
    while heap:
        total, _tie, caps = heapq.heappop(heap)
        explored += 1
        if explored > max_states:
            raise GraphError(f"buffer search exceeded {max_states} states")
        cap_map = dict(zip(edge_names, caps))
        rate = _rate_with(graph, cap_map, actor)
        if rate >= target:
            return BufferSizingResult(cap_map, rate, actor)
        for i in range(len(caps)):
            if caps[i] + 1 > cap_limit:
                continue
            nxt = caps[:i] + (caps[i] + 1,) + caps[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (sum(nxt), next(counter), nxt))
    raise GraphError(f"no capacity vector ≤ {cap_limit} reaches throughput {target}")
