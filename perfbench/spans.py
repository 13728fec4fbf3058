"""In-memory span recorder for the benchmark's traced runs.

A traced run replaces the public entry points of each layer (module or
class attributes) with timing wrappers installed from the benchmark's own
code; nothing under ``src/`` changes.  Spans stay in memory and are written
out once, when the process ends.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Children are the spans opened inside it (same thread, or same
asyncio task).  A span opened on a worker thread outside any span -- the
admission server runs Algorithm 1 on an executor thread -- counts as a child
of every main-thread span whose interval contains it, so a request's self
time excludes the solves it waited for.  It never counts as a child of
another worker-thread span, and a main-thread span never counts as a child
of a worker-thread one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Recorder", "layer_stats", "self_times"]


class Recorder:
    """Collects spans: name, start, end, parent span, operation id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[dict | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._current.get()
        rec: dict[str, Any] = {
            "id": next(self._ids),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "op": op if op is not None else (parent or {}).get("op"),
            "thread": threading.get_ident(),
            "worker": threading.current_thread() is not threading.main_thread(),
            "attrs": {},
        }
        token = self._current.set(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(rec)

    def wrap(
        self,
        fn: Callable,
        name: str,
        op: Callable[..., str | None] | None = None,
        on_result: Callable[[dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``op`` names the operation from the
        call's arguments, ``on_result`` stores counts read from the result
        (after the span has closed, so reading them is not timed)."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                with self.span(name, op(*args, **kwargs) if op else None) as rec:
                    result = await fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, op(*args, **kwargs) if op else None) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(rec, result)
            return result
        return wrapper

    def patch(self, owners: Iterable[Any], attr: str, name: str, **kw) -> None:
        """Replace ``attr`` on every owner (modules that imported the name,
        or a class) with one shared wrapper around the original."""
        owners = list(owners)
        wrapped = self.wrap(getattr(owners[0], attr), name, **kw)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict[str, Any]]) -> None:
    """Set ``span["self"]`` on every span (see the module docstring)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    orphans = [s for s in spans if s["parent"] is None and s["worker"]]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    for s in spans:
        kids = children[s["id"]]
        if not s["worker"]:
            kids = kids + [
                (o["start"], o["end"]) for o in orphans
                if o["start"] >= s["start"] and o["end"] <= s["end"]
            ]
        s["self"] = (s["end"] - s["start"]) - _covered(kids, s["start"], s["end"])


def layer_stats(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds, median call."""
    self_times(spans)
    grouped: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        grouped[s["name"]].append(s)
    return {
        name: {
            "calls": len(group),
            "total_s": sum(s["end"] - s["start"] for s in group),
            "self_s": sum(s["self"] for s in group),
            "p50_ms": 1000 * statistics.median(s["end"] - s["start"] for s in group),
        }
        for name, group in grouped.items()
    }
