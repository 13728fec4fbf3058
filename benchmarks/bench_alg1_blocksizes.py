"""ALG1: Algorithm 1 block sizes on the PAL demonstrator.

Paper: "we computed that for 44.1 kHz audio output, the streams at the
start of the chain need to multiplex blocks of 10136 samples while the
streams at the end of the chain will be multiplexed at 1267 samples (note
the 8:1 ratio in the block sizes due to down-sampling)."

Reproduced: η = 9870 / 1234 at the nominal 100 MHz parameters (the paper's
exact values correspond to a 0.127% rate margin — both satisfy Eq. 5 and
both show the 8:1 structure).  See EXPERIMENTS.md.
"""

from fractions import Fraction

from repro.app import PAPER_BLOCK_SIZES, pal_block_sizes, pal_gateway_system
from repro.core import compute_block_sizes, throughput_satisfied
from repro.exp import Sweep, run_sweep
from repro.exp.tasks import pal_blocksizes

from conftest import banner


def test_alg1_pal_block_sizes(benchmark):
    sizes = benchmark(pal_block_sizes)
    banner("ALG1 block sizes (streams over shared CORDIC+FIR chain)")
    print(f"{'stream':<10} {'computed η':>11} {'paper η':>9}")
    paper = {"s1": PAPER_BLOCK_SIZES["stage1"], "s2": PAPER_BLOCK_SIZES["stage2"]}
    for name, eta in sorted(sizes.items()):
        stage = name.split(".")[1]
        print(f"{name:<10} {eta:>11} {paper[stage]:>9}")
    s1, s2 = sizes["ch1.s1"], sizes["ch1.s2"]
    # the 8:1 ratio holds within integer rounding
    assert abs(s1 - 8 * s2) <= 8
    # within 3% of the published values
    assert abs(s1 - 10136) / 10136 < 0.03
    assert abs(s2 - 1267) / 1267 < 0.03
    # the solution actually satisfies Eq. 5
    system = pal_gateway_system().with_block_sizes(sizes)
    assert throughput_satisfied(system)


def test_alg1_exact_paper_values_with_margin(benchmark):
    sizes = benchmark(pal_block_sizes, rate_margin=Fraction(100127, 100000))
    banner("ALG1 with the prototype's implied 0.127% rate margin")
    print(f"stage-1: {sizes['ch1.s1']} (paper 10136), "
          f"stage-2: {sizes['ch1.s2']} (paper 1267)")
    assert sizes["ch1.s1"] == 10136
    assert sizes["ch1.s2"] == 1267


def test_alg1_margin_sweep_engine(benchmark):
    """The rate-margin sweep through repro.exp: nominal vs prototype margin."""
    sweep = Sweep.grid(
        "alg1_margins", pal_blocksizes, axes={"margin_ppm": [0, 635, 1270]}
    )

    def run():
        result = run_sweep(sweep, workers=1)
        return {o.params["margin_ppm"]: o.value["block_sizes"] for o in result.succeeded}

    by_margin = benchmark(run)
    banner("ALG1 margin sweep via repro.exp (0 / 635 / 1270 ppm)")
    for ppm, sizes in sorted(by_margin.items()):
        print(f"  {ppm:>5} ppm: s1={sizes['ch1.s1']}, s2={sizes['ch1.s2']}")
    # the prototype's 0.127% margin lands on the paper's exact values
    assert by_margin[1270]["ch1.s1"] == 10136
    assert by_margin[1270]["ch1.s2"] == 1267
    # tighter margins never allow larger blocks
    s1 = [by_margin[p]["ch1.s1"] for p in (0, 635, 1270)]
    assert s1 == sorted(s1)


def test_alg1_minimality(benchmark, pal_system):
    """One sample less on any stream breaks Eq. 5 — Ση is truly minimal."""
    result = benchmark(compute_block_sizes, pal_system)
    sizes = result.block_sizes
    for name in sizes:
        smaller = dict(sizes)
        smaller[name] -= 1
        cand = pal_system.with_block_sizes(smaller)
        assert not throughput_satisfied(cand), f"{name} not minimal"
