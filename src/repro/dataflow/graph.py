"""(C)SDF graph data structures.

The paper's temporal analysis rests on Cyclo-Static Data Flow (CSDF) [Bilsen
et al., 1996] and its special case Synchronous Data Flow (SDF).  This module
defines the graph model used throughout :mod:`repro.dataflow`:

* an :class:`Actor` has one or more *phases*; each phase has a firing
  duration, and each incident edge has per-phase production/consumption
  *quanta*,
* an :class:`Edge` is a conceptually unbounded token queue with a number of
  *initial tokens*; a bounded buffer is modelled (as in the paper) by a
  forward edge plus a complementary back edge whose initial tokens encode the
  capacity,
* every CSDF actor carries an **implicit self-edge with one token**
  (paper, Section V-A), so firings of one actor never overlap.  This is
  enforced by the execution engine rather than materialised as an edge.

Quanta and durations are stored as tuples whose length equals the actor's
phase count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

__all__ = ["Actor", "Edge", "CSDFGraph", "SDFGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed dataflow graphs."""


def _as_phase_tuple(value: int | float | Sequence[int | float], phases: int, what: str):
    """Normalise scalar-or-sequence input to a tuple of length ``phases``."""
    if isinstance(value, (int, float)):
        return (value,) * phases
    out = tuple(value)
    if len(out) != phases:
        raise GraphError(f"{what} has {len(out)} entries but the actor has {phases} phases")
    return out


@dataclass(frozen=True)
class Actor:
    """A (C)SDF actor.

    Parameters
    ----------
    name:
        Unique actor identifier.
    duration:
        Firing duration per phase (scalar = same for all phases).
    phases:
        Number of phases (1 = plain SDF actor).
    """

    name: str
    duration: tuple[float, ...]
    phases: int = 1

    def __post_init__(self) -> None:
        if self.phases < 1:
            raise GraphError(f"actor {self.name!r} must have at least one phase")
        if len(self.duration) != self.phases:
            raise GraphError(
                f"actor {self.name!r}: {len(self.duration)} durations for {self.phases} phases"
            )
        if any(d < 0 for d in self.duration):
            raise GraphError(f"actor {self.name!r} has a negative firing duration")

    @staticmethod
    def make(name: str, duration: float | Sequence[float], phases: int | None = None) -> "Actor":
        """Build an actor, inferring the phase count from ``duration``.

        Exact numeric types (int, Fraction) are preserved so that tight
        throughput comparisons stay exact; floats stay floats.
        """
        def _keep(d):
            return d if isinstance(d, (int, Fraction)) else float(d)

        if isinstance(d := duration, (int, float, Fraction)):
            return Actor(name, (_keep(d),) * (phases or 1), phases or 1)
        dur = tuple(_keep(x) for x in duration)
        if phases is not None and phases != len(dur):
            raise GraphError(f"actor {name!r}: phases={phases} but {len(dur)} durations")
        return Actor(name, dur, len(dur))

    @property
    def is_sdf(self) -> bool:
        return self.phases == 1

    @property
    def total_duration(self) -> float:
        """Sum of all phase durations (one full cyclo-static cycle)."""
        return sum(self.duration)

    @property
    def max_duration(self) -> float:
        return max(self.duration)


@dataclass(frozen=True)
class Edge:
    """A token queue from ``src`` to ``dst``.

    ``production`` has one quantum per phase of ``src``; ``consumption`` one
    per phase of ``dst``.  ``tokens`` is the number of initial tokens.
    """

    name: str
    src: str
    dst: str
    production: tuple[int, ...]
    consumption: tuple[int, ...]
    tokens: int = 0

    def __post_init__(self) -> None:
        if any(q < 0 for q in self.production) or any(q < 0 for q in self.consumption):
            raise GraphError(f"edge {self.name!r} has negative quanta")
        if sum(self.production) == 0:
            raise GraphError(f"edge {self.name!r} never produces any token")
        if sum(self.consumption) == 0:
            raise GraphError(f"edge {self.name!r} never consumes any token")
        if self.tokens < 0:
            raise GraphError(f"edge {self.name!r} has negative initial tokens")

    @property
    def total_production(self) -> int:
        """Tokens produced over one full cyclo-static cycle of ``src``."""
        return sum(self.production)

    @property
    def total_consumption(self) -> int:
        """Tokens consumed over one full cyclo-static cycle of ``dst``."""
        return sum(self.consumption)


class CSDFGraph:
    """A cyclo-static dataflow graph: actors plus token-queue edges."""

    def __init__(self, name: str = "csdf") -> None:
        self.name = name
        self._actors: dict[str, Actor] = {}
        self._edges: dict[str, Edge] = {}

    # -- construction ---------------------------------------------------
    def add_actor(
        self,
        name: str,
        duration: float | Sequence[float] = 0.0,
        phases: int | None = None,
    ) -> Actor:
        """Add an actor; ``duration`` may be per-phase."""
        if name in self._actors:
            raise GraphError(f"duplicate actor {name!r}")
        actor = Actor.make(name, duration, phases)
        self._actors[name] = actor
        return actor

    def add_edge(
        self,
        src: str,
        dst: str,
        production: int | Sequence[int] = 1,
        consumption: int | Sequence[int] = 1,
        tokens: int = 0,
        name: str | None = None,
    ) -> Edge:
        """Add a token queue from ``src`` to ``dst`` with initial ``tokens``."""
        if src not in self._actors:
            raise GraphError(f"unknown source actor {src!r}")
        if dst not in self._actors:
            raise GraphError(f"unknown destination actor {dst!r}")
        label = name or f"{src}->{dst}#{len(self._edges)}"
        if label in self._edges:
            raise GraphError(f"duplicate edge name {label!r}")
        prod = _as_phase_tuple(production, self._actors[src].phases, f"production of {label!r}")
        cons = _as_phase_tuple(consumption, self._actors[dst].phases, f"consumption of {label!r}")
        prod = tuple(int(q) for q in prod)
        cons = tuple(int(q) for q in cons)
        edge = Edge(label, src, dst, prod, cons, int(tokens))
        self._edges[label] = edge
        return edge

    def with_edge_tokens(self, overrides: Mapping[str, int]) -> "CSDFGraph":
        """Copy of the graph with selected edges' initial tokens replaced."""
        unknown = set(overrides) - set(self._edges)
        if unknown:
            raise GraphError(f"unknown edges in override: {sorted(unknown)}")
        g = type(self)(self.name)
        g._actors = dict(self._actors)
        for label, e in self._edges.items():
            tok = overrides.get(label, e.tokens)
            g._edges[label] = Edge(e.name, e.src, e.dst, e.production, e.consumption, int(tok))
        return g

    # -- access -----------------------------------------------------------
    @property
    def actors(self) -> dict[str, Actor]:
        return dict(self._actors)

    @property
    def edges(self) -> dict[str, Edge]:
        return dict(self._edges)

    def actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise GraphError(f"unknown actor {name!r}") from None

    def edge(self, name: str) -> Edge:
        try:
            return self._edges[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def in_edges(self, actor: str) -> list[Edge]:
        return [e for e in self._edges.values() if e.dst == actor]

    def out_edges(self, actor: str) -> list[Edge]:
        return [e for e in self._edges.values() if e.src == actor]

    def __iter__(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    def __len__(self) -> int:
        return len(self._actors)

    # -- properties ---------------------------------------------------------
    @property
    def is_sdf(self) -> bool:
        """True when every actor has a single phase."""
        return all(a.is_sdf for a in self._actors.values())

    def undirected_components(self) -> list[set[str]]:
        """Weakly-connected components (actor name sets)."""
        adj: dict[str, set[str]] = {a: set() for a in self._actors}
        for e in self._edges.values():
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        seen: set[str] = set()
        comps: list[set[str]] = []
        for start in self._actors:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adj[node]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            seen |= comp
            comps.append(comp)
        return comps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{len(self._actors)} actors, {len(self._edges)} edges>"
        )


class SDFGraph(CSDFGraph):
    """A CSDF graph restricted to single-phase actors."""

    def add_actor(
        self,
        name: str,
        duration: float | Sequence[float] = 0.0,
        phases: int | None = None,
    ) -> Actor:
        if phases not in (None, 1):
            raise GraphError("SDFGraph actors are single-phase; use CSDFGraph")
        if not isinstance(duration, (int, float, Fraction)):
            seq = tuple(duration)
            if len(seq) != 1:
                raise GraphError("SDFGraph actors are single-phase; use CSDFGraph")
            duration = seq[0]
        return super().add_actor(name, duration, 1)

