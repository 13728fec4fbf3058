"""Property-based tests: fault-plan serialisation and online Algorithm 1 re-solve.

Invariants the reconfiguration subsystem leans on:

* ``FaultSpec``/``FaultPlan`` survive ``to_dict``/``from_dict`` and the
  JSON round-trip unchanged — the CLI, the benchmark configs and the
  churn plans all travel through that path,
* ``resolve_block_sizes`` is idempotent under warm-starting: re-solving
  the same system with its own previous result short-circuits on the
  fingerprint and returns that result, which is what makes an unchanged
  mode transition a no-op.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    AcceleratorSpec,
    GatewaySystem,
    StreamSpec,
    resolve_block_sizes,
    sharing_load,
    system_fingerprint,
)
from repro.sim.faults import (
    ACCEL_STALL,
    CFIFO_PTR_LOSS,
    FAULT_KINDS,
    RING_DELAY,
    RING_DROP,
    STREAM_JOIN,
    STREAM_LEAVE,
    TASK_STALL,
    TILE_FAILURE,
    FaultPlan,
    FaultSpec,
)

_NAMES = st.text(alphabet="abcdefgh0123._", min_size=1, max_size=12)


@st.composite
def fault_specs(draw) -> FaultSpec:
    kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
    kwargs = {"kind": kind, "at": draw(st.integers(0, 1_000_000))}
    if draw(st.booleans()):
        kwargs["duration"] = draw(st.integers(1, 100_000))
    if draw(st.booleans()):
        kwargs["count"] = draw(st.integers(1, 8))
    if kind in (ACCEL_STALL, RING_DELAY, TASK_STALL):
        kwargs["extra"] = draw(st.integers(1, 10_000))
    if kind in (TILE_FAILURE, STREAM_JOIN, STREAM_LEAVE):
        kwargs["target"] = draw(_NAMES)
    elif kind in (ACCEL_STALL, CFIFO_PTR_LOSS, TASK_STALL) and draw(st.booleans()):
        kwargs["target"] = draw(_NAMES)
    if kind == STREAM_JOIN:
        params = {
            "throughput": [draw(st.integers(1, 16)),
                           draw(st.integers(1, 100_000))],
            "reconfigure": draw(st.integers(1, 10_000)),
        }
        if draw(st.booleans()):
            params["block_size"] = draw(st.integers(1, 256))
        kwargs["params"] = params
    if kind == RING_DROP:
        if draw(st.booleans()):
            kwargs["probability"] = draw(
                st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False))
        kwargs["src"] = draw(st.none() | st.integers(0, 15))
        kwargs["dst"] = draw(st.none() | st.integers(0, 15))
        kwargs["ring"] = draw(st.sampled_from(["data", "credit"]))
    if kind == CFIFO_PTR_LOSS:
        kwargs["side"] = draw(st.sampled_from(["write", "read"]))
    return FaultSpec(**kwargs)


@given(fault_specs())
def test_fault_spec_dict_roundtrip(spec):
    assert FaultSpec.from_dict(spec.to_dict()) == spec


@given(fault_specs())
def test_fault_spec_to_dict_omits_defaults(spec):
    data = spec.to_dict()
    assert {"kind", "at"} <= set(data)
    for name, value in data.items():
        if name not in ("kind", "at"):
            assert value != FaultSpec.__dataclass_fields__[name].default


@given(st.lists(fault_specs(), max_size=6), st.integers(0, 2**31 - 1))
def test_fault_plan_json_roundtrip(specs, seed):
    plan = FaultPlan(specs=tuple(specs), seed=seed)
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.churn == plan.churn
    assert again.tile_failures == plan.tile_failures


# --------------------------------------------------------------- online ILP
@st.composite
def feasible_systems(draw) -> GatewaySystem:
    n = draw(st.integers(1, 3))
    dens = draw(st.lists(st.integers(120, 600), min_size=n, max_size=n,
                         unique=True))
    streams = tuple(
        StreamSpec(f"s{i}", Fraction(1, den), draw(st.integers(40, 600)))
        for i, den in enumerate(dens)
    )
    system = GatewaySystem(
        accelerators=(AcceleratorSpec("acc0", draw(st.integers(1, 2))),),
        streams=streams,
    )
    assume(sharing_load(system) < 1)
    return system


@given(feasible_systems())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_resolve_is_idempotent_under_warm_start(system):
    first = resolve_block_sizes(system)
    again = resolve_block_sizes(system, previous=first)
    assert again is first
    assert again.fingerprint == first.fingerprint == system_fingerprint(system)


@given(feasible_systems())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fingerprint_tracks_stream_set(system):
    fp = system_fingerprint(system)
    assert fp == system_fingerprint(system)  # deterministic
    grown = GatewaySystem(
        accelerators=system.accelerators,
        streams=system.streams + (StreamSpec("extra", Fraction(1, 997), 99),),
    )
    assert system_fingerprint(grown) != fp
