"""Unit tests for gateway-system JSON serialisation."""

from fractions import Fraction

import pytest

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    ParameterError,
    StreamSpec,
    compute_block_sizes,
    dump_system,
    load_system,
    system_from_dict,
)


def sample_system():
    return GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", 1), AcceleratorSpec("fir", 2)),
        streams=(
            StreamSpec("a", Fraction(1, 60), 4100, block_size=32),
            StreamSpec("b", Fraction(1, 240), 4100),
        ),
        entry_copy=15,
        exit_copy=1,
    )


def test_system_roundtrip():
    s = sample_system()
    s2 = load_system(dump_system(s))
    assert s2.entry_copy == 15
    assert [a.name for a in s2.accelerators] == ["cordic", "fir"]
    assert s2.stream("a").throughput == Fraction(1, 60)
    assert s2.stream("a").block_size == 32
    assert s2.stream("b").block_size is None


def test_system_roundtrip_preserves_analysis():
    s = sample_system()
    s2 = load_system(dump_system(s))
    assert compute_block_sizes(s).block_sizes == compute_block_sizes(s2).block_sizes


def test_system_from_rate_form():
    s = system_from_dict({
        "entry_copy": 10,
        "accelerators": [{"name": "a", "rho": 1}],
        "streams": [{"name": "s", "samples_per_second": 44100,
                     "clock_hz": 100_000_000, "reconfigure": 100}],
    })
    assert s.stream("s").throughput == Fraction(44100, 100_000_000)


def test_system_rate_without_clock_rejected():
    with pytest.raises(ParameterError, match="clock_hz"):
        system_from_dict({
            "accelerators": [{"name": "a", "rho": 1}],
            "streams": [{"name": "s", "samples_per_second": 44100,
                         "reconfigure": 1}],
        })


def test_system_no_throughput_rejected():
    with pytest.raises(ParameterError, match="throughput"):
        system_from_dict({
            "accelerators": [{"name": "a", "rho": 1}],
            "streams": [{"name": "s", "reconfigure": 1}],
        })


def test_system_bad_json_rejected():
    with pytest.raises(ParameterError):
        load_system("•not json•")


def test_system_missing_sections_rejected():
    with pytest.raises(ParameterError):
        system_from_dict({"streams": []})


def test_system_unknown_top_level_key_rejected_with_hint():
    with pytest.raises(ParameterError, match="did you mean 'entry_copy'"):
        system_from_dict({
            "entry_cpy": 15,
            "accelerators": [{"name": "a", "rho": 1}],
            "streams": [{"name": "s", "throughput": [1, 40],
                         "reconfigure": 1}],
        })


def test_system_unknown_key_without_close_match_lists_valid_keys():
    with pytest.raises(ParameterError, match="expected a subset of"):
        system_from_dict({
            "zzz": True,
            "accelerators": [{"name": "a", "rho": 1}],
            "streams": [{"name": "s", "throughput": [1, 40],
                         "reconfigure": 1}],
        })


def test_system_non_object_config_rejected():
    with pytest.raises(ParameterError, match="JSON object"):
        system_from_dict([1, 2, 3])
