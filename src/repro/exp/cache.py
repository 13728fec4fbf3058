"""Process-local memoization for Algorithm-1 solves.

Sweeps over system parameters re-solve Algorithm 1 at every point, and
the admission service (:mod:`repro.serve`) re-solves on every join, leave
and quote.  :class:`SolverCache` memoizes the answers, keyed on
:func:`~repro.core.blocksize_ilp.system_fingerprint` (the identity of the
constraint set), so a repeated system returns the previously computed
:class:`~repro.core.blocksize_ilp.BlockSizeResult` verbatim without
solving again.

The cache is process-local by design: the sweep engine keeps one per
sweep in each process that evaluates points (the in-process runner, each
queue worker).  Algorithm 1 is exact and pure, so a hit returns exactly
what a fresh solve would: which points share a memo moves the counters,
never a result.  A long-running service bounds it with ``capacity`` (LRU
eviction).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..core.blocksize_ilp import (
    BlockSizeResult,
    resolve_block_sizes,
    system_fingerprint,
)
from ..core.params import GatewaySystem

__all__ = ["SolverCache"]


class SolverCache:
    """Memoizing front-end to Algorithm 1.

    ``resolve`` is a drop-in for
    :func:`~repro.core.blocksize_ilp.resolve_block_sizes`; hit/miss
    counters make the reuse rate observable (sweep reports surface them).
    ``capacity`` bounds the memo (LRU eviction) so a cache embedded in a
    long-running service cannot grow without limit; ``None`` (the default,
    used by the sweep engine, whose memo lives for one sweep) keeps it
    unbounded.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._memo: OrderedDict[tuple, BlockSizeResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memo)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Exact-memo hit fraction over all lookups (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    # -- raw memo access (used by the serve layer, which runs its own
    # solve and memoizes the result) ----------------------------------------
    def get(self, fingerprint: tuple) -> BlockSizeResult | None:
        """Memo lookup by fingerprint; counts a hit or a miss."""
        cached = self._memo.get(fingerprint)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._memo.move_to_end(fingerprint)
        return cached

    def put(self, fingerprint: tuple, result: BlockSizeResult) -> None:
        """Insert a solved result, evicting the least-recently-used entry
        when over capacity."""
        self._memo[fingerprint] = result
        self._memo.move_to_end(fingerprint)
        while self.capacity is not None and len(self._memo) > self.capacity:
            self._memo.popitem(last=False)
            self.evictions += 1

    def resolve(self, system: GatewaySystem, c1_mode: str = "sum") -> BlockSizeResult:
        """Solve Algorithm 1 for ``system``, reusing a memoized answer.

        Uncapped only: the memo key is the constraint set, which an
        ``eta_max`` cap is not part of (capped callers solve directly).
        """
        fp = system_fingerprint(system, c1_mode=c1_mode)
        cached = self.get(fp)
        if cached is not None:
            return cached
        result = resolve_block_sizes(system, c1_mode=c1_mode)
        self.put(fp, result)
        return result

    def invalidate(self) -> None:
        """Drop every memoized solution (counters are kept)."""
        self._memo.clear()

    def stats(self) -> dict[str, Any]:
        """JSON-friendly counters for sweep reports and serve status."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._memo),
            "capacity": self.capacity,
            "evictions": self.evictions,
        }
