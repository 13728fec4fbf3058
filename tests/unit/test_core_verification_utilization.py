"""Unit tests for the verification battery and utilization accounting."""

from fractions import Fraction
from unittest import mock

import pytest

from repro.api import Scenario
from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    accelerator_utilization_gain,
    analyze_utilization,
    block_round_length,
    compute_block_sizes,
    csdf_builder,
    verification,
    verify_system,
)
from repro.dataflow import execute


def system_of(mus, R=20, eps=5, rho=(1,), delta=1, etas=None):
    streams = tuple(
        StreamSpec(f"s{i}", mu, R, block_size=None if etas is None else etas[i])
        for i, mu in enumerate(mus)
    )
    return GatewaySystem(
        accelerators=tuple(AcceleratorSpec(f"a{i}", r) for i, r in enumerate(rho)),
        streams=streams,
        entry_copy=eps,
        exit_copy=delta,
    )


# ------------------------------------------------------------- verification
def test_verify_system_passes_on_ilp_solution():
    sys_ = system_of([Fraction(1, 60), Fraction(1, 120)], R=20, eps=4)
    res = compute_block_sizes(sys_)
    assigned = sys_.with_block_sizes(res.block_sizes)
    report = verify_system(assigned)
    assert report.ok, report.summary()
    assert len(report.streams) == 2
    for s in report.streams:
        assert s.eq5_ok and s.sdf_ok and s.tau_ok and s.refinement_ok


def test_verify_system_is_exact_on_paper_pal_system():
    # the paper's block sizes at the rate margin that reproduces them: τ̂ and
    # CSDF ⊑ SDF hold without float slack, on exact integer block times
    system = Scenario.from_registry(
        "pal_decoder", eta_stage1=10136, eta_stage2=1267, margin_ppm=1270).system
    report = verify_system(system)
    assert report.ok, report.summary()
    assert [s.tau_measured for s in report.streams] == [156143, 156143, 23108, 23108]
    assert all(type(s.tau_measured) is int for s in report.streams)


def test_verify_system_flags_undersized_blocks():
    sys_ = system_of([Fraction(1, 30)], R=100, eps=5, etas=[1])
    report = verify_system(sys_)
    assert not report.ok
    assert not report.streams[0].eq5_ok
    assert "FAIL" in report.summary()


def _losing(actor, count):
    """``execute`` whose results lost ``actor``'s last ``count`` records.

    They are dropped from the run's ``(actor index, phase, end tick)``
    records, so every accessor of the result misses them."""
    def run(graph, **kwargs):
        res = execute(graph, **kwargs)
        if actor in graph.actors:
            k = sorted(graph.actors).index(actor)
            records = res._engine._records
            for n in [n for n, r in enumerate(records) if r[0] == k][-count:][::-1]:
                del records[n]
        return res
    return run


def _one_block_short(graph, iterations, **kwargs):
    """``execute`` whose Fig. 5 runs stop one block short of their quota."""
    return execute(graph, iterations=iterations - ("vG1" in graph.actors), **kwargs)


# verify_stream runs one Fig. 5 model for max(blocks, 3) blocks: τ̂ reads
# its first ``blocks`` blocks, the refinement its first three.  A run keeps
# one vG1 record per block, the block's last exit token.
@pytest.mark.parametrize("short", [_losing("vG1", 1), _one_block_short],
                         ids=["last-token", "last-block"])
def test_refinement_fails_when_the_csdf_run_stops_short(short):
    # CSDF ⊑ SDF compares the exits of exactly three blocks: a run that
    # lost the window's last exit token, or stopped a block short, has
    # tokens the abstraction promises and the refinement never made, while
    # τ̂'s two blocks are all measured
    system = system_of([Fraction(1, 60)], etas=[4])
    assert verify_system(system).ok
    with mock.patch.object(verification, "execute", short):
        (stream,) = verify_system(system).streams
    assert not stream.refinement_ok and stream.tau_ok


def test_tau_check_fails_when_a_block_never_completes():
    # τ̂ must bound every measured block: with four blocks in τ̂'s window, a
    # fourth whose exit never completed is not measured, so the check fails
    # instead of passing on fewer, while the refinement's three all exit
    system = system_of([Fraction(1, 60)], etas=[4])
    assert verify_system(system, blocks=4).ok
    with mock.patch.object(verification, "execute", _losing("vG1", 1)):
        (stream,) = verify_system(system, blocks=4).streams
    assert not stream.tau_ok and stream.refinement_ok


def test_verify_stream_runs_one_fig5_model_keeping_two_records_per_block():
    # τ̂ and the refinement read one run of one model, which keeps vG0's
    # phase 0 and vG1's last phase only: at η = 10136, two records per block
    system = Scenario.from_registry(
        "pal_decoder", eta_stage1=10136, eta_stage2=1267, margin_ppm=1270).system
    for blocks in (2, 4):
        built, kept = [], []

        def build(*args, **kwargs):
            graph, info = csdf_builder.build_stream_csdf(*args, **kwargs)
            built.append(graph.name)
            return graph, info

        def run(graph, **kwargs):
            res = execute(graph, **kwargs)
            if graph.name.startswith("csdf"):
                kept.append(len(res.firings))
            return res

        with mock.patch.object(verification, "build_stream_csdf", build), \
                mock.patch.object(verification, "execute", run), \
                mock.patch.object(csdf_builder, "execute", run):
            assert verification.verify_stream(system, "ch1.s1", blocks).ok
        assert built == ["csdf[ch1.s1]"]
        assert len(kept) == 1 and kept[0] <= 2 * max(blocks, 3)


def test_verify_system_requires_block_sizes():
    sys_ = system_of([Fraction(1, 30)])
    with pytest.raises(ParameterError):
        verify_system(sys_)


def test_verify_summary_format():
    sys_ = system_of([Fraction(1, 100)], R=10, eps=3, etas=[4])
    out = verify_system(sys_).summary()
    assert "stream" in out and "s0" in out


# -------------------------------------------------------------- utilization
def test_utilization_round_decomposition():
    sys_ = system_of([Fraction(1, 60), Fraction(1, 120)], R=20, eps=5, etas=[10, 5])
    u = analyze_utilization(sys_)
    assert u.round_length == block_round_length(sys_)
    assert u.samples_per_round == 15
    assert u.copy_cycles == 15 * 5
    assert u.reconfig_cycles == 40
    # fractions sum sensibly
    assert 0 < float(u.gateway_copy_fraction) < 1
    assert u.data_processing_fraction + u.state_management_fraction == 1


def test_utilization_requires_block_sizes():
    sys_ = system_of([Fraction(1, 60)])
    with pytest.raises(ParameterError):
        analyze_utilization(sys_)


def test_utilization_flush_cycles_consistent():
    sys_ = system_of([Fraction(1, 60)], R=20, eps=5, etas=[10])
    u = analyze_utilization(sys_)
    # τ̂ = R + (η + F)c0 => flush = F·c0
    assert u.flush_cycles == sys_.flush_stages * sys_.c0
    assert u.round_length == u.copy_cycles + u.reconfig_cycles + u.flush_cycles


def test_pal_prototype_utilization_split():
    """With the paper's ε=15, R=4100 and computed blocks, the transfer-centric
    split lands near the quoted 5% data / 95% state management."""
    clock = 100_000_000
    audio = 44_100
    mus = [Fraction(64 * audio, clock), Fraction(8 * audio, clock)] * 2
    sys_ = GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", 1), AcceleratorSpec("lpf", 1)),
        streams=tuple(StreamSpec(f"s{i}", mu, 4100) for i, mu in enumerate(mus)),
        entry_copy=15,
        exit_copy=1,
    )
    res = compute_block_sizes(sys_)
    u = analyze_utilization(sys_.with_block_sizes(res.block_sizes))
    assert 0.03 < float(u.data_processing_fraction) < 0.10
    assert 0.90 < float(u.state_management_fraction) < 0.97
    assert 0.02 < float(u.reconfig_fraction) < 0.08


def test_accelerator_utilization_gain():
    assert accelerator_utilization_gain(4, 1) == 4  # the paper's factor 4
    assert accelerator_utilization_gain(6, 2) == 3
    with pytest.raises(ValueError):
        accelerator_utilization_gain(0, 1)
