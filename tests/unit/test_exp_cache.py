"""SolverCache: memoization, LRU bound, invalidation, counters."""

from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    compute_block_sizes,
)
from repro.exp import SolverCache


def make_system(rate_den_a=60, rate_den_b=120, reconfigure=100, entry=15):
    return GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=(
            StreamSpec("s0", Fraction(1, rate_den_a), reconfigure),
            StreamSpec("s1", Fraction(1, rate_den_b), reconfigure),
        ),
        entry_copy=entry,
        exit_copy=1,
    )


def test_repeated_system_is_a_memo_hit():
    cache = SolverCache()
    system = make_system()
    first = cache.resolve(system)
    second = cache.resolve(system)
    assert second is first  # verbatim, no re-solve
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    assert len(cache) == 1


def test_equal_systems_share_a_fingerprint():
    cache = SolverCache()
    cache.resolve(make_system())
    cache.resolve(make_system())  # fresh but identical object
    assert cache.hits == 1


def test_distinct_systems_miss():
    cache = SolverCache()
    cache.resolve(make_system(rate_den_a=60))
    cache.resolve(make_system(rate_den_a=70))
    assert (cache.hits, cache.misses) == (0, 2)


def test_churn_answers_equal_compute_block_sizes():
    """Along a join/leave sequence, every answer (solved or memoized) is
    Algorithm 1 on that candidate, whatever the cache saw before."""
    cache = SolverCache()
    base = make_system()
    joined = []
    for i, den in enumerate((300, 500, 700, 900)):
        joined.append(StreamSpec(f"j{i}", Fraction(1, den), 60))
        for system in (GatewaySystem(base.accelerators, base.streams + tuple(joined),
                                     entry_copy=15, exit_copy=1),
                       GatewaySystem(base.accelerators, tuple(joined),
                                     entry_copy=15, exit_copy=1)):
            result = cache.resolve(system)
            assert result.block_sizes == compute_block_sizes(system).block_sizes
            assert cache.resolve(system) is result


def test_invalidate_drops_memo_keeps_counters():
    cache = SolverCache()
    system = make_system()
    cache.resolve(system)
    cache.resolve(system)
    cache.invalidate()
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (1, 1)  # history preserved
    cache.resolve(system)  # must re-solve now
    assert cache.misses == 2


def test_stats_shape():
    cache = SolverCache()
    cache.resolve(make_system())
    cache.resolve(make_system())
    stats = cache.stats()
    assert stats == {
        "lookups": 2,
        "hits": 1,
        "misses": 1,
        "hit_rate": 0.5,
        "entries": 1,
        "capacity": None,
        "evictions": 0,
    }


def test_empty_cache_hit_rate_is_zero():
    assert SolverCache().hit_rate == 0.0


def test_cache_plugs_into_scenario_solve():
    from repro.api import Scenario

    cache = SolverCache()
    system = make_system()
    a = Scenario(system).solve(cache=cache)
    b = Scenario(system).solve(cache=cache)
    assert cache.hits == 1
    assert [s.block_size for s in a.system.streams] == [
        s.block_size for s in b.system.streams
    ]
    assert all(s.block_size is not None for s in a.system.streams)


@pytest.mark.parametrize("eta_max", [None, 4096])
def test_eta_max_flows_through(eta_max):
    result = SolverCache().resolve(make_system(), eta_max=eta_max)
    assert all(v >= 1 for v in result.block_sizes.values())
    top = max(result.block_sizes.values())
    with pytest.raises(ParameterError, match="eta_max"):
        SolverCache().resolve(make_system(), eta_max=top - 1)


# ---------------------------------------------------------------------------
# bounded (LRU) cache behind the admission service
# ---------------------------------------------------------------------------

def test_lru_capacity_evicts_oldest_entry():
    cache = SolverCache(capacity=2)
    a, b, c = make_system(60), make_system(61), make_system(62)
    cache.resolve(a)
    cache.resolve(b)
    cache.resolve(a)  # refresh a: b is now the eviction candidate
    cache.resolve(c)  # evicts b
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    misses = cache.misses
    cache.resolve(a)
    assert cache.misses == misses  # a survived
    cache.resolve(b)
    assert cache.misses == misses + 1  # b was evicted, must re-solve
