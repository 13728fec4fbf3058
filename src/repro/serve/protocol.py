"""Wire protocol of the admission-control service.

One request and one response per newline-delimited JSON object.  The
protocol is deliberately small — five operations — and *eagerly*
validated: unknown operations and unknown request fields are rejected up
front with a did-you-mean hint (the same stance as fault-plan and
system-config ingestion), so a misspelled field can never be silently
ignored and later mistaken for a default.

Every rejection carries a machine-readable reason in
``response["error"]["code"]`` drawn from :data:`REJECT_CODES`; clients
branch on the code, never on the human-readable message.

Operations
----------
``join``
    Admit a new stream: requires ``tenant``, ``stream``, ``throughput``
    (``[num, den]`` samples/cycle) and ``reconfigure`` (R_s cycles);
    optional ``priority`` (higher sheds later), ``idempotency_key`` and
    ``deadline`` (seconds the client is willing to wait).
``leave``
    Withdraw a stream: requires ``tenant`` and ``stream``; same optional
    fields as ``join``.
``quote``
    Dry-run admission test: same shape as ``join``, answered inline from
    the closed-form Eq. 5 bound without queueing or mutating anything.
``status``
    Read-only service snapshot (streams, load, breaker, counters).
``shutdown``
    Ask the service to stop accepting work and drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from fractions import Fraction
from typing import Any

__all__ = [
    "OPS",
    "REJECT_CODES",
    "ProtocolError",
    "Request",
    "parse_request",
    "ok_response",
    "error_response",
]

#: every operation a request may carry
OPS = frozenset({"join", "leave", "quote", "status", "shutdown"})

#: every machine-readable rejection reason a response may carry
REJECT_CODES = frozenset({
    "overloaded",       # admission queue full or stream table at capacity
    "deadline",         # the request's deadline expired before commit
    "bound_exceeded",   # Eq. 5 admission test failed (load >= 1 / infeasible)
    "breaker_open",     # injected solver unavailable and the load is
                        # above the breaker load limit
    "malformed",        # unparseable or eagerly-rejected request
    "internal",         # handler crashed before producing an answer
    "unknown_stream",   # leave/quote for a stream the service doesn't hold
    "already_joined",   # join for a stream name already bound
    "not_owner",        # leave by a tenant that doesn't own the stream
    "last_stream",      # leave that would empty the system
    "shutting_down",    # service is draining
})

#: request fields, per operation (everything beyond ``op``)
_COMMON_FIELDS = {"tenant", "stream", "idempotency_key", "deadline"}
_FIELDS: dict[str, set[str]] = {
    "join": _COMMON_FIELDS | {"throughput", "reconfigure", "priority"},
    "quote": _COMMON_FIELDS | {"throughput", "reconfigure", "priority"},
    "leave": set(_COMMON_FIELDS),
    "status": set(),
    "shutdown": set(),
}


class ProtocolError(ValueError):
    """Raised for requests rejected by eager validation."""


def _did_you_mean(word: str, options) -> str:
    close = get_close_matches(str(word), sorted(options), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


@dataclass(frozen=True)
class Request:
    """One validated request."""

    op: str
    tenant: str | None = None
    stream: str | None = None
    throughput: Fraction | None = None
    reconfigure: int | None = None
    priority: int = 0
    idempotency_key: str | None = None
    #: seconds the client is willing to wait; ``None`` = no deadline
    deadline: float | None = None


def parse_request(data: Any) -> Request:
    """Validate one decoded JSON request eagerly, or raise :class:`ProtocolError`."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    op = data.get("op")
    if op is None:
        raise ProtocolError(f"request needs an 'op' field; one of {sorted(OPS)}")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}{_did_you_mean(op, OPS)} (expected one of "
            f"{sorted(OPS)})"
        )
    allowed = _FIELDS[op]
    unknown = set(data) - allowed - {"op"}
    if unknown:
        hints = "".join(
            _did_you_mean(u, allowed | {"op"}) for u in sorted(unknown)
        )
        raise ProtocolError(
            f"unknown field(s) {sorted(unknown)} for op {op!r}{hints}"
        )

    tenant = data.get("tenant")
    stream = data.get("stream")
    if op in ("join", "leave", "quote"):
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(f"op {op!r} needs a non-empty string 'tenant'")
        if not isinstance(stream, str) or not stream:
            raise ProtocolError(f"op {op!r} needs a non-empty string 'stream'")

    throughput: Fraction | None = None
    reconfigure: int | None = None
    if op in ("join", "quote"):
        tp = data.get("throughput")
        if (not isinstance(tp, (list, tuple)) or len(tp) != 2
                or not all(isinstance(v, int) and v > 0 for v in tp)):
            raise ProtocolError(
                f"op {op!r} needs 'throughput' as a positive [num, den] "
                f"pair, got {tp!r}"
            )
        throughput = Fraction(tp[0], tp[1])
        rc = data.get("reconfigure")
        if not isinstance(rc, int) or rc < 0:
            raise ProtocolError(
                f"op {op!r} needs 'reconfigure' as a non-negative integer "
                f"cycle count, got {rc!r}"
            )
        reconfigure = rc

    priority = data.get("priority", 0)
    if not isinstance(priority, int):
        raise ProtocolError(f"'priority' must be an integer, got {priority!r}")

    key = data.get("idempotency_key")
    if key is not None and (not isinstance(key, str) or not key):
        raise ProtocolError(
            f"'idempotency_key' must be a non-empty string, got {key!r}"
        )

    deadline = data.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool) \
                or deadline <= 0:
            raise ProtocolError(
                f"'deadline' must be a positive number of seconds, got "
                f"{deadline!r}"
            )
        deadline = float(deadline)

    return Request(
        op=op, tenant=tenant, stream=stream, throughput=throughput,
        reconfigure=reconfigure, priority=priority,
        idempotency_key=key, deadline=deadline,
    )


def ok_response(op: str, **body: Any) -> dict[str, Any]:
    """A success response envelope."""
    return {"ok": True, "op": op, **body}


def error_response(op: str | None, code: str, message: str,
                   **extra: Any) -> dict[str, Any]:
    """A structured rejection; ``code`` must be a :data:`REJECT_CODES` member."""
    if code not in REJECT_CODES:
        raise ValueError(f"unknown reject code {code!r}")
    return {
        "ok": False,
        "op": op,
        "error": {"code": code, "message": message, **extra},
    }
