"""Unit tests for Algorithm 1 (exact block sizes) and the buffer-optimal search."""

import time
from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    compute_block_sizes,
    guaranteed_throughput,
    optimal_block_sizes_for_buffers,
    sharing_load,
    stream_buffer_cost,
    throughput_satisfied,
)
from tests.refilp import ilp_block_sizes


def system_of(mus, R=20, eps=5, rho=(1,), delta=1):
    return GatewaySystem(
        accelerators=tuple(AcceleratorSpec(f"a{i}", r) for i, r in enumerate(rho)),
        streams=tuple(StreamSpec(f"s{i}", mu, R) for i, mu in enumerate(mus)),
        entry_copy=eps,
        exit_copy=delta,
    )


def test_sharing_load():
    sys_ = system_of([Fraction(1, 100), Fraction(1, 50)], eps=5)
    assert sharing_load(sys_) == 5 * (Fraction(1, 100) + Fraction(1, 50))


def test_single_stream_block_size():
    mu = Fraction(1, 100)
    sys_ = system_of([mu], R=20, eps=5)
    res = compute_block_sizes(sys_)
    eta = res.block_sizes["s0"]
    assigned = sys_.with_block_sizes(res.block_sizes)
    assert throughput_satisfied(assigned)
    # minimality: eta - 1 violates Eq. 5
    if eta > 1:
        smaller = sys_.with_block_sizes({"s0": eta - 1})
        assert not throughput_satisfied(smaller)


def test_two_streams_satisfy_eq5():
    sys_ = system_of([Fraction(1, 60), Fraction(1, 90)], R=30, eps=4)
    res = compute_block_sizes(sys_)
    assigned = sys_.with_block_sizes(res.block_sizes)
    for s in assigned.streams:
        assert guaranteed_throughput(assigned, s.name) >= s.throughput


def test_total_minimality_two_streams():
    """No vector with a smaller Ση satisfies Eq. 5 (exhaustive cross-check)."""
    sys_ = system_of([Fraction(1, 30), Fraction(1, 45)], R=10, eps=3)
    res = compute_block_sizes(sys_)
    total = res.total
    for e0 in range(1, total):
        for e1 in range(1, total - e0):
            if e0 + e1 >= total:
                continue
            cand = sys_.with_block_sizes({"s0": e0, "s1": e1})
            assert not throughput_satisfied(cand), (e0, e1)


def test_backends_agree():
    """The exact solver and both ILP oracle backends find the same optimum."""
    sys_ = system_of([Fraction(1, 60), Fraction(1, 90), Fraction(1, 200)], R=30, eps=4)
    exact = compute_block_sizes(sys_)
    for backend in ("scipy", "bnb"):
        assert ilp_block_sizes(sys_, backend=backend) == exact.block_sizes


def test_exact_where_highs_is_not_minimal():
    """HiGHS answers s1 = 1686 (Σ 17598) here: feasible, but not minimal."""
    rates = [(28857, 626092, 3038), (5050, 254339, 2992), (15956, 409423, 530),
             (13845, 742127, 3354), (48322, 980661, 1537), (34423, 996891, 2956)]
    sys_ = GatewaySystem(
        accelerators=(AcceleratorSpec("a", 4),),
        streams=tuple(StreamSpec(f"s{i}", Fraction(p, q), r)
                      for i, (p, q, r) in enumerate(rates)),
        entry_copy=1,
        exit_copy=1,
    )
    res = compute_block_sizes(sys_)
    assert res.block_sizes == {"s0": 3911, "s1": 1685, "s2": 3307,
                               "s3": 1583, "s4": 4181, "s5": 2930}
    assert res.total == 17597
    assert throughput_satisfied(sys_.with_block_sizes(res.block_sizes))
    smaller = dict(res.block_sizes, s1=1684)
    assert not throughput_satisfied(sys_.with_block_sizes(smaller))


def test_eta_max_rejects_before_the_fixed_point():
    """One stream at load 0.9999 plus 32 at the η ≥ 1 floor: the climb to
    the least element takes ~10^4 steps, a cap it exceeds is reported at
    the first step whose need passes the cap."""
    streams = [StreamSpec("big", Fraction(9999, 10000 * 15), 0)] + [
        StreamSpec(f"t{i}", Fraction(1, 10**12), 0) for i in range(32)]
    sys_ = GatewaySystem(accelerators=(AcceleratorSpec("a", 1),),
                         streams=tuple(streams), entry_copy=15, exit_copy=1)
    full = compute_block_sizes(sys_)
    assert full.steps > 10_000
    started = time.process_time()
    with pytest.raises(ParameterError, match="eta_max 65536"):
        compute_block_sizes(sys_, eta_max=65536)
    assert time.process_time() - started < 0.05


def test_steps_within_bound_at_scale():
    """1024 weighted streams at load 0.9: a few dozen O(n) steps."""
    from repro.exp.tasks import many_streams_system

    res = compute_block_sizes(many_streams_system(1024, load_pct=90))
    assert res.steps <= 1024 / (1 - 0.9) + 2
    assert throughput_satisfied(
        many_streams_system(1024, load_pct=90).with_block_sizes(res.block_sizes))


def test_infeasible_overload_diagnosed():
    # c0·Σμ = 5 * (1/5 + 1/5) = 2 ≥ 1
    sys_ = system_of([Fraction(1, 5), Fraction(1, 5)], eps=5)
    with pytest.raises(ParameterError, match="load"):
        compute_block_sizes(sys_)


def test_higher_rate_gets_larger_block():
    sys_ = system_of([Fraction(1, 50), Fraction(1, 400)], R=20, eps=5)
    res = compute_block_sizes(sys_)
    assert res.block_sizes["s0"] > res.block_sizes["s1"]


def test_paper_c1_mode_is_weaker():
    """The literal c1=R_s constraint admits smaller (unsafe) blocks."""
    sys_ = system_of([Fraction(1, 60), Fraction(1, 90)], R=30, eps=4)
    strict = compute_block_sizes(sys_, c1_mode="sum")
    loose = compute_block_sizes(sys_, c1_mode="paper")
    assert loose.total <= strict.total


def test_c1_mode_validation():
    sys_ = system_of([Fraction(1, 60)])
    with pytest.raises(ParameterError):
        compute_block_sizes(sys_, c1_mode="bogus")


def test_block_sizes_blow_up_near_saturation():
    """η grows like 1/(1-load) as the load approaches 1."""
    totals = []
    for denom in (40, 30, 24, 21):  # load = 5*2/denom: 0.25, 0.33, 0.42, 0.48 each
        sys_ = system_of([Fraction(1, denom)] * 2, R=100, eps=5)
        totals.append(compute_block_sizes(sys_).total)
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_reconfiguration_cost_inflates_blocks():
    small_r = compute_block_sizes(system_of([Fraction(1, 60)], R=10)).total
    big_r = compute_block_sizes(system_of([Fraction(1, 60)], R=1000)).total
    assert big_r > small_r


# ------------------------------------------------------- buffer-optimal B&B
def test_stream_buffer_cost_requires_block_size():
    sys_ = system_of([Fraction(1, 100)])
    with pytest.raises(ParameterError):
        stream_buffer_cost(sys_, "s0")


def test_stream_buffer_cost_sustains_rate():
    sys_ = system_of([Fraction(1, 100)], R=20, eps=5).with_block_sizes({"s0": 4})
    caps = stream_buffer_cost(sys_, "s0")
    assert set(caps) == {"p2s", "s2c"}
    assert all(c >= 4 for c in caps.values())  # must hold a block


def test_optimal_block_sizes_for_buffers_feasible_and_not_worse():
    sys_ = system_of([Fraction(1, 80)], R=20, eps=5)
    ilp = compute_block_sizes(sys_)
    eta0 = ilp.block_sizes["s0"]
    res = optimal_block_sizes_for_buffers(
        sys_, {"s0": range(max(1, eta0), eta0 + 4)}
    )
    assigned = sys_.with_block_sizes(res.block_sizes)
    assert throughput_satisfied(assigned)
    # the chosen vector's buffer total is minimal within the box
    for eta in range(max(1, eta0), eta0 + 4):
        cand = sys_.with_block_sizes({"s0": eta})
        if not throughput_satisfied(cand):
            continue
        caps = stream_buffer_cost(cand, "s0")
        assert sum(caps.values()) >= res.total_buffer


def test_optimal_block_sizes_missing_range_rejected():
    sys_ = system_of([Fraction(1, 80), Fraction(1, 80)])
    with pytest.raises(ParameterError):
        optimal_block_sizes_for_buffers(sys_, {"s0": range(1, 5)})


def test_optimal_block_sizes_infeasible_box():
    sys_ = system_of([Fraction(1, 80)], R=500, eps=5)
    with pytest.raises(ParameterError):
        optimal_block_sizes_for_buffers(sys_, {"s0": range(1, 3)})
