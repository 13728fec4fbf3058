"""Ablation: the exact Algorithm-1 solver against the two ILP oracle backends.

The paper's ILP, solved by SciPy/HiGHS and by the branch-and-bound oracle
(``tests/refilp``), must return the exact solver's block sizes on the PAL
instance and on a family of scaled instances; the bench records the
relative cost of all three.  Run from the repository root.
"""

import os
import sys
from fractions import Fraction

from repro.core import AcceleratorSpec, GatewaySystem, StreamSpec, compute_block_sizes

from conftest import banner

# the ILP oracle is a test module under tests/, never shipped in src/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.refilp import ilp_block_sizes  # noqa: E402


def make_instance(n_streams: int, load_pct: int = 60):
    """n streams with distinct rates summing to load_pct% of capacity."""
    weights = list(range(1, n_streams + 1))
    base = Fraction(load_pct, 100 * 15 * sum(weights))  # c0 = 15
    return GatewaySystem(
        accelerators=(AcceleratorSpec("acc", 1),),
        streams=tuple(
            StreamSpec(f"s{i}", base * w, 4100) for i, w in enumerate(weights)
        ),
        entry_copy=15,
        exit_copy=1,
    )


def test_backends_agree_on_pal(benchmark, pal_system):
    def all_three():
        return (compute_block_sizes(pal_system).block_sizes,
                ilp_block_sizes(pal_system, backend="scipy"),
                ilp_block_sizes(pal_system, backend="bnb"))

    exact, scipy, bnb = benchmark(all_three)
    banner("Algorithm 1 solvers on the PAL instance")
    print(f"exact Ση {sum(exact.values())}, scipy Ση {sum(scipy.values())}, "
          f"bnb Ση {sum(bnb.values())}")
    assert exact == scipy == bnb


def test_backends_agree_on_instance_family(benchmark):
    def sweep():
        out = []
        for n in (2, 3, 4, 5):
            system = make_instance(n)
            out.append((n, compute_block_sizes(system).block_sizes,
                        ilp_block_sizes(system, backend="scipy"),
                        ilp_block_sizes(system, backend="bnb")))
        return out

    rows = benchmark(sweep)
    banner("Algorithm 1 solvers across instance sizes")
    print(f"{'streams':>8} {'exact Ση':>9} {'scipy Ση':>9} {'bnb Ση':>8}")
    for n, exact, scipy, bnb in rows:
        print(f"{n:>8} {sum(exact.values()):>9} {sum(scipy.values()):>9} "
              f"{sum(bnb.values()):>8}")
        assert exact == scipy == bnb


def test_exact_alone(benchmark, pal_system):
    res = benchmark(compute_block_sizes, pal_system)
    assert res.feasible


def test_scipy_backend_alone(benchmark, pal_system):
    assert benchmark(ilp_block_sizes, pal_system, backend="scipy") is not None


def test_bnb_backend_alone(benchmark, pal_system):
    assert benchmark(ilp_block_sizes, pal_system, backend="bnb") is not None
