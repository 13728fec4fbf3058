"""Seeded request schedule of the ``admission`` workload.

The schedule has three phases:

* ``prefill`` -- closed loop: joins up to the target population;
* ``open`` -- open loop at a fixed offered rate: joins and leaves that keep
  the population within two streams of the target (so the solve cost stays
  the same over the run), quotes for streams that never join, and a few
  requests whose correct answer is a reject (a duplicate join, a leave of a
  stream that was never admitted);
* ``close`` -- closed loop: connection 1's tenants leave.

Every tenant talks over one connection, so its leave follows its own join
and each expected answer follows from the schedule alone.  Because only
connection 0's streams survive, the final stream order -- and with it the
service's state fingerprint -- does not depend on how the two connections
interleave.  Rates keep the aggregate load below 0.69, far from the shed
watermark, so no join can be refused for capacity.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

__all__ = ["Request", "Plan", "make_plan"]

TENANTS = 32
QUOTE_SHARE = 0.25
REJECT_SHARE = 0.03
#: tenant stream rates are 1/den samples per cycle, den in this range
RATE_DEN = (1200, 3000)


@dataclass
class Request:
    conn: int
    payload: dict[str, Any]
    #: "ok", or "reject:<code>"
    expect: str
    phase: str
    #: seconds after the open loop starts (open phase only)
    due: float = 0.0
    sent: float | None = None
    answered: float | None = None
    response: dict[str, Any] | None = None


@dataclass
class Plan:
    prefill: list[Request]
    open: list[Request]
    close: list[Request]
    #: tenant streams admitted at the end: name -> (throughput, reconfigure)
    final: dict[str, tuple[Fraction, int]]

    @property
    def requests(self) -> list[Request]:
        return self.prefill + self.open + self.close


def make_plan(seed: int, seconds: float, rate: float, target: int) -> Plan:
    rng = random.Random(seed)
    live: dict[str, tuple[str, int, Fraction, int]] = {}
    ids = itertools.count()

    def tenant() -> tuple[str, int]:
        t = rng.randrange(TENANTS)
        return f"t{t}", t % 2

    def spec() -> tuple[Fraction, int]:
        return Fraction(1, rng.randint(*RATE_DEN)), rng.randrange(16, 401, 8)

    def join_payload(op, who, name, mu, r):
        return {"op": op, "tenant": who, "stream": name,
                "throughput": [mu.numerator, mu.denominator], "reconfigure": r}

    def join(phase: str) -> Request:
        (who, conn), (mu, r) = tenant(), spec()
        name = f"s{next(ids)}"
        live[name] = (who, conn, mu, r)
        return Request(conn, join_payload("join", who, name, mu, r), "ok", phase)

    def leave(phase: str, name: str) -> Request:
        who, conn, _mu, _r = live.pop(name)
        return Request(conn, {"op": "leave", "tenant": who, "stream": name},
                       "ok", phase)

    prefill = [join("prefill") for _ in range(target)]
    opened = []
    for i in range(max(1, round(rate * seconds))):
        u = rng.random()
        if u < QUOTE_SHARE:
            (who, conn), (mu, r) = tenant(), spec()
            req = Request(conn, join_payload("quote", who, f"q{i}", mu, r),
                          "ok", "open")
        elif u < QUOTE_SHARE + REJECT_SHARE:
            if rng.random() < 0.5:
                name = rng.choice(sorted(live))
                who, conn, mu, r = live[name]
                req = Request(conn, join_payload("join", who, name, mu, r),
                              "reject:already_joined", "open")
            else:
                who, conn = tenant()
                req = Request(conn, {"op": "leave", "tenant": who,
                                     "stream": f"ghost{i}"},
                              "reject:unknown_stream", "open")
        elif rng.random() < 0.5 + (target - len(live)) / 4:
            req = join("open")
        else:
            req = leave("open", rng.choice(sorted(live)))
        req.due = i / rate
        opened.append(req)
    close = [leave("close", name) for name in sorted(live)
             if live[name][1] == 1]
    final = {name: (mu, r) for name, (_w, _c, mu, r) in live.items()}
    return Plan(prefill, opened, close, final)
