"""Fault-tolerant multi-tenant admission-control service.

The paper's Eq. 5 test decides, offline, whether a stream set fits the
shared accelerator chain.  This package serves that decision *online*:
a stdlib-only (``asyncio``) TCP service where many tenants concurrently
join and leave streams, compatible requests batch into single mode
transitions, and every answer carries the Eq. 5 verdict plus a
transition-budget quote::

    PYTHONPATH=src python -m repro serve examples/configs/two_radios.json

    # from another shell / process
    from repro.serve import ServeClient
    with ServeClient("127.0.0.1", 9178) as c:
        c.request({"op": "join", "tenant": "t0", "stream": "s0",
                   "throughput": [1, 64], "reconfigure": 40})

The failure envelope is explicit — bounded queues (``overloaded``),
per-request deadlines (``deadline``), a circuit breaker over injected
solvers (``breaker_open``), priority shedding near the bound, and
idempotency keys for exactly-once retries; see
:class:`~repro.serve.service.AdmissionService`.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, SolverError
from .chaos import InjectedCrash, ServeChaos
from .client import ServeClient, smoke_session
from .protocol import (
    OPS,
    REJECT_CODES,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .server import serve_forever
from .service import (
    AdmissionService,
    ReplayError,
    journal_to_fault_plan,
    replay_journal,
    state_fingerprint,
)

__all__ = [
    "OPS",
    "REJECT_CODES",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "AdmissionService",
    "CircuitBreaker",
    "InjectedCrash",
    "ProtocolError",
    "ReplayError",
    "Request",
    "ServeChaos",
    "ServeClient",
    "SolverError",
    "error_response",
    "journal_to_fault_plan",
    "ok_response",
    "parse_request",
    "replay_journal",
    "serve_forever",
    "smoke_session",
    "state_fingerprint",
]
