"""Property-based tests for the paper's equations and Algorithm 1.

Invariants:

* τ̂/ε̂/γ structural identities and monotonicity in η, R, rates,
* Algorithm 1 always returns an Eq.5-feasible, component-minimal solution,
* feasibility is exactly characterised by the load bound c0·Σμ < 1
  (for feasible instances; overload is always diagnosed),
* the SDF-model dataflow check agrees with the closed-form Eq. 5.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    compute_block_sizes,
    epsilon_hat,
    gamma,
    sharing_load,
    tau_hat,
    throughput_satisfied,
    verify_with_sdf_model,
)

eps_s = st.integers(min_value=1, max_value=20)
delta_s = st.integers(min_value=1, max_value=5)
rho_s = st.integers(min_value=1, max_value=8)
r_s = st.integers(min_value=0, max_value=500)
eta_s = st.integers(min_value=1, max_value=64)


@st.composite
def system_with_etas(draw, n_max=3):
    n = draw(st.integers(min_value=1, max_value=n_max))
    eps = draw(eps_s)
    streams = tuple(
        StreamSpec(
            f"s{i}",
            Fraction(1, draw(st.integers(min_value=200, max_value=5000))),
            draw(r_s),
            block_size=draw(eta_s),
        )
        for i in range(n)
    )
    return GatewaySystem(
        accelerators=(AcceleratorSpec("a", draw(rho_s)),),
        streams=streams,
        entry_copy=eps,
        exit_copy=draw(delta_s),
    )


@given(system_with_etas())
@settings(max_examples=60, deadline=None)
def test_gamma_decomposition(system):
    """γ_s = ε̂_s + τ̂_s and is the same for every stream (one rotation)."""
    gammas = set()
    for s in system.streams:
        assert gamma(system, s.name) == epsilon_hat(system, s.name) + tau_hat(
            system, s.name
        )
        gammas.add(gamma(system, s.name))
    assert len(gammas) == 1


@given(system_with_etas())
@settings(max_examples=60, deadline=None)
def test_tau_hat_formula(system):
    for s in system.streams:
        assert tau_hat(system, s.name) == s.reconfigure + (
            (s.block_size or 0) + system.flush_stages
        ) * system.c0


@given(system_with_etas(), st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_tau_monotone_in_eta(system, extra):
    s0 = system.streams[0]
    bigger = system.with_block_sizes({s0.name: (s0.block_size or 1) + extra})
    assert tau_hat(bigger, s0.name) > tau_hat(system, s0.name)
    # and every OTHER stream's waiting time grows too
    for s in system.streams[1:]:
        assert epsilon_hat(bigger, s.name) > epsilon_hat(system, s.name)


@st.composite
def feasible_system(draw, n_max=3):
    """A system whose load is safely below 1 (Algorithm 1 must solve it)."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    eps = draw(st.integers(min_value=1, max_value=15))
    rho = draw(st.integers(min_value=1, max_value=4))
    delta = draw(st.integers(min_value=1, max_value=3))
    c0 = max(eps, rho, delta)
    # allocate at most 80% of capacity across the streams
    denoms = [draw(st.integers(min_value=2, max_value=10)) for _ in range(n)]
    total_weight = sum(Fraction(1, d) for d in denoms)
    scale = Fraction(4, 5) / (c0 * total_weight)
    streams = tuple(
        StreamSpec(f"s{i}", Fraction(1, d) * scale, draw(st.integers(0, 300)))
        for i, d in enumerate(denoms)
    )
    return GatewaySystem(
        accelerators=(AcceleratorSpec("a", rho),),
        streams=streams,
        entry_copy=eps,
        exit_copy=delta,
    )


@given(feasible_system())
@settings(max_examples=40, deadline=None)
def test_alg1_solution_feasible_and_minimal(system):
    assume(float(sharing_load(system)) < 0.9)
    result = compute_block_sizes(system)
    assigned = system.with_block_sizes(result.block_sizes)
    assert throughput_satisfied(assigned)
    # per-stream minimality: decrementing any η breaks Eq. 5
    for name, eta in result.block_sizes.items():
        if eta == 1:
            continue
        smaller = dict(result.block_sizes)
        smaller[name] = eta - 1
        assert not throughput_satisfied(system.with_block_sizes(smaller))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_overload_always_diagnosed(n, k):
    """c0·Σμ ≥ 1 must raise with the load diagnosis, never 'solve'."""
    mu = Fraction(1, n)  # n streams at 1/n each with c0 ≥ k ≥ 1: load ≥ 1
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("a", k),),
        streams=tuple(StreamSpec(f"s{i}", mu, 10) for i in range(n)),
        entry_copy=k,
        exit_copy=1,
    )
    assert sharing_load(system) >= 1
    try:
        compute_block_sizes(system)
        raise AssertionError("overloaded system must not solve")
    except ParameterError as err:
        assert "load" in str(err)


@given(system_with_etas(n_max=2))
@settings(max_examples=25, deadline=None)
def test_sdf_model_check_matches_closed_form(system):
    for s in system.streams:
        ok_model, _rate = verify_with_sdf_model(system, s.name)
        assert ok_model == throughput_satisfied(system, s.name)
