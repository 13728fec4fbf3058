"""Algorithm 1's exact solver against the ILP oracle and exhaustive search.

:func:`~repro.core.compute_block_sizes` returns the least element of the
integer feasible set (DESIGN.md §12).  These properties check it in exact
``Fraction`` arithmetic:

* against the paper's ILP solved by both oracle backends
  (``tests/refilp``: HiGHS and branch-and-bound) on random systems that
  include loads ≥ 0.99 and ≥ 1, one stream, ``R_s = 0``, both ``c1_mode``
  forms and a binding ``eta_max``;
* against exhaustive search over tiny boxes (n ≤ 3, η ≤ 30), where the
  least element is the componentwise min of every feasible vector.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    compute_block_sizes,
    sharing_load,
)
from tests.refilp import ilp_block_sizes


def constraints(system, c1_mode):
    """Per stream ``(name, c1_s, μ_s)``, straight from the paper's Eq. 5."""
    r_sum = sum(s.reconfigure for s in system.streams)
    return [(s.name, r_sum if c1_mode == "sum" else s.reconfigure, s.throughput)
            for s in system.streams]


def feasible(system, etas, c1_mode, eta_max=None):
    """Every Algorithm-1 constraint on ``etas``, in exact arithmetic:
    ``1 ≤ η_s ≤ eta_max`` and ``η_s ≥ μ_s·(c1_s + c0·Σ_i(η_i + F))``."""
    round_ = sum(etas.values()) + system.flush_stages * len(etas)
    for name, c1, mu in constraints(system, c1_mode):
        eta = etas[name]
        if eta < 1 or (eta_max is not None and eta > eta_max):
            return False
        if eta < mu * (c1 + system.c0 * round_):
            return False
    return True


#: aggregate loads: the bulk of the range plus the saturation boundary
LOADS = st.one_of(
    st.fractions(Fraction(1, 20), Fraction(98, 100), max_denominator=1000),
    st.sampled_from([Fraction(99, 100), Fraction(999, 1000),
                     Fraction(9999, 10000), Fraction(1), Fraction(101, 100)]),
)


@st.composite
def systems(draw, max_streams=6, loads=LOADS, max_reconfigure=5000,
            max_copy=16, max_rho=6):
    n = draw(st.integers(1, max_streams))
    rhos = draw(st.lists(st.integers(1, max_rho), min_size=1, max_size=3))
    eps = draw(st.integers(1, max_copy))
    delta = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    reconf = draw(st.lists(st.one_of(st.just(0), st.integers(0, max_reconfigure)),
                           min_size=n, max_size=n))
    unit = draw(loads) / (max(eps, delta, *rhos) * sum(weights))
    return GatewaySystem(
        accelerators=tuple(AcceleratorSpec(f"a{i}", r) for i, r in enumerate(rhos)),
        streams=tuple(StreamSpec(f"s{i}", unit * w, r)
                      for i, (w, r) in enumerate(zip(weights, reconf))),
        entry_copy=eps,
        exit_copy=delta,
    )


@given(systems(), st.sampled_from(["sum", "paper"]), st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_vs_ilp_oracles(system, c1_mode, data):
    load = sharing_load(system)
    event("load >= 1" if load >= 1 else "load >= 0.99" if load >= Fraction(99, 100)
          else "load < 0.99")
    if load >= 1:
        with pytest.raises(ParameterError, match="load"):
            compute_block_sizes(system, c1_mode=c1_mode)
        return
    least = compute_block_sizes(system, c1_mode=c1_mode)
    etas = least.block_sizes
    assert feasible(system, etas, c1_mode)
    assert least.objective == sum(etas.values())
    assert least.steps <= len(etas) / (1 - load) + 2
    for name, eta in etas.items():
        if eta > 1:
            assert not feasible(system, {**etas, name: eta - 1}, c1_mode), name

    for backend in ("scipy", "bnb"):
        answer = ilp_block_sizes(system, backend=backend, c1_mode=c1_mode)
        if answer is not None and feasible(system, answer, c1_mode):
            # the least element is below every feasible vector; a larger
            # total means the float oracle returned a non-minimal answer
            assert all(etas[k] <= answer[k] for k in etas), (backend, answer)

    # a cap at, just above or just below the largest block size
    top = max(etas.values())
    cap = data.draw(st.integers(max(1, top - 3), top + 3), label="eta_max")
    event("eta_max binding" if cap < top else "eta_max slack")
    if cap >= top:
        capped = compute_block_sizes(system, c1_mode=c1_mode, eta_max=cap)
        assert capped.block_sizes == etas
    else:
        with pytest.raises(ParameterError, match="eta_max"):
            compute_block_sizes(system, c1_mode=c1_mode, eta_max=cap)
        answer = ilp_block_sizes(system, backend="bnb", c1_mode=c1_mode,
                                 eta_max=cap)
        assert answer is None or not feasible(system, answer, c1_mode, cap)


#: tiny boxes: loads near saturation make the least element leave the box
TINY_LOADS = st.one_of(
    st.fractions(Fraction(1, 20), Fraction(95, 100), max_denominator=200),
    st.sampled_from([Fraction(97, 100), Fraction(99, 100), Fraction(999, 1000)]),
)


@given(systems(max_streams=3, loads=TINY_LOADS, max_reconfigure=40,
               max_copy=3, max_rho=3),
       st.sampled_from(["sum", "paper"]))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_vs_exhaustive_search(system, c1_mode):
    box = 30
    names = [s.name for s in system.streams]
    # the same inequality as ``feasible``, cross-multiplied to integers so
    # that the whole box can be enumerated
    fixed = system.flush_stages * len(names)
    terms = [(mu.numerator, mu.denominator, c1)
             for _name, c1, mu in constraints(system, c1_mode)]
    found = [v for v in itertools.product(range(1, box + 1), repeat=len(names))
             if all(eta * q >= p * (c1 + system.c0 * (sum(v) + fixed))
                    for eta, (p, q, c1) in zip(v, terms))]
    event("box empty" if not found else "box feasible")
    if not found:
        with pytest.raises(ParameterError, match="eta_max"):
            compute_block_sizes(system, c1_mode=c1_mode, eta_max=box)
        return
    least = tuple(min(v[i] for v in found) for i in range(len(names)))
    assert least in found  # closed under componentwise min
    result = compute_block_sizes(system, c1_mode=c1_mode, eta_max=box)
    assert result.block_sizes == dict(zip(names, least))
    assert feasible(system, result.block_sizes, c1_mode, box)
