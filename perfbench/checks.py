"""Output checks of the three workloads.

Each check returns the reasons an answer is wrong (empty when it is right),
so a run counts failed operations instead of stopping at the first one.
Everything is compared exactly: block sizes as integers, rates as
``Fraction``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Any, Mapping

__all__ = [
    "check_pal_stream",
    "check_corpus_point",
    "check_answer",
    "check_final_state",
    "exact_mismatches",
]

#: answers that must never occur at the benchmark's offered load
FORBIDDEN_CODES = ("overloaded", "deadline", "internal")


def check_pal_stream(
    name: str,
    eta: int,
    expected_eta: int,
    verified: bool,
    blocks_done: int,
    blocks: int,
    violations: int,
) -> list[str]:
    """One PAL stream: paper block size, dataflow verification, completed
    blocks and zero Eq. 2-5 violations."""
    errors = []
    if eta != expected_eta:
        errors.append(f"{name}: eta {eta} != paper {expected_eta}")
    if not verified:
        errors.append(f"{name}: verify_system rejects the stream")
    if blocks_done < blocks:
        errors.append(f"{name}: completed {blocks_done} of {blocks} blocks")
    if violations:
        errors.append(f"{name}: {violations} Eq. 2-5 violation(s)")
    return errors


def check_corpus_point(point: Mapping[str, Any]) -> list[str]:
    """One sweep point (``PointOutcome.payload()``): it ran, and every bound
    violation it saw is attributed to a transition or fault."""
    pid = point.get("id")
    if point.get("error") is not None:
        return [f"{pid}: failed ({point['error']})"]
    value = point.get("value") or {}
    if value.get("unattributed", 0) or not value.get("fully_attributed", False):
        return [f"{pid}: {value.get('unattributed')} unattributed violation(s)"]
    return []


def _fraction(pair: Any) -> Fraction | None:
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(v, int) for v in pair) and pair[1] > 0):
        return Fraction(pair[0], pair[1])
    return None


def check_answer(expect: str, request: Mapping[str, Any],
                 response: Mapping[str, Any] | None) -> list[str]:
    """One admission request against its expected outcome.

    ``expect`` is ``"ok"`` (join admitted, leave applied, quote admits) or
    ``"reject:<code>"``.  An admit or quote must guarantee at least the
    requested throughput, compared as exact fractions.
    """
    op, stream = request.get("op"), request.get("stream")
    where = f"{op} {stream}"
    if response is None:
        return [f"{where}: no answer"]
    if expect.startswith("reject:"):
        code = expect.split(":", 1)[1]
        got = (response.get("error") or {}).get("code")
        if response.get("ok") is not False or got != code:
            return [f"{where}: expected reject {code}, got "
                    f"ok={response.get('ok')} code={got}"]
        return []
    if response.get("ok") is not True:
        code = (response.get("error") or {}).get("code")
        return [f"{where}: rejected ({code})"]
    if op == "leave":
        return []
    if (op == "join" and response.get("admitted") is not True) or (
            op == "quote" and response.get("admit") is not True):
        return [f"{where}: not admitted ({response.get('reason')})"]
    requested = _fraction(request.get("throughput"))
    guaranteed = _fraction(response.get("guaranteed"))
    if guaranteed is None or requested is None or guaranteed < requested:
        return [f"{where}: guaranteed {response.get('guaranteed')} below "
                f"requested {request.get('throughput')}"]
    return []


def check_final_state(status: Mapping[str, Any], baseline, expected) -> list[str]:
    """The service's final ``status`` against the generator's stream set.

    ``baseline`` is the configured :class:`GatewaySystem`; ``expected``
    maps each tenant stream that should still be admitted to its
    ``(throughput, reconfigure)``.  Every block size in the status must
    satisfy Eq. 5 on the system rebuilt from the requests sent.
    """
    # imported here: run.py loads this module without the program's path
    from repro.core.params import ParameterError, StreamSpec
    from repro.core.timing import throughput_satisfied

    errors = []
    streams = status.get("streams") or {}
    want = {s.name for s in baseline.streams} | set(expected)
    if set(streams) != want:
        errors.append(
            f"final stream set differs: missing {sorted(want - set(streams))}, "
            f"extra {sorted(set(streams) - want)}")
        return errors
    rebuilt = replace(baseline, streams=tuple(
        [StreamSpec(s.name, s.throughput, s.reconfigure)
         for s in baseline.streams]
        + [StreamSpec(name, mu, r) for name, (mu, r) in expected.items()]
    ))
    try:
        assigned = rebuilt.with_block_sizes(
            {name: entry["eta"] for name, entry in streams.items()})
    except (ParameterError, TypeError, ValueError) as exc:  # a wrong answer
        return [f"final block sizes unusable: {exc}"]
    for name in sorted(streams):
        if not throughput_satisfied(assigned, name):
            errors.append(f"final eta {streams[name]['eta']} of {name} "
                          "violates Eq. 5")
    counters = status.get("counters") or {}
    if counters.get("sheds"):
        errors.append(f"{counters['sheds']} stream(s) shed")
    if (status.get("breaker") or {}).get("trips"):
        errors.append(f"breaker tripped {status['breaker']['trips']} time(s)")
    rejected = counters.get("rejected") or {}
    for code in FORBIDDEN_CODES:
        if rejected.get(code):
            errors.append(f"{rejected[code]} '{code}' answer(s)")
    return errors


def exact_mismatches(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    """Keys of two exact-value records whose values differ or that only one
    of them has."""
    missing = object()
    return [f"{key}: {a.get(key, 'missing')!r} != {b.get(key, 'missing')!r}"
            for key in sorted(set(a) | set(b))
            if a.get(key, missing) != b.get(key, missing)]
