"""Content-addressed, journal-backed result store for sweep runs.

Every completed point of a sweep is durably journaled as it lands, so

* an interrupted or killed run **resumes incrementally** — points that
  made it to disk are replayed from the journal without executing a
  single task, and
* a **re-run of an identical sweep is a pure cache hit** — same spec,
  same guard rails ⇒ every point replays from the store.

Layout: one append-only JSONL journal per sweep name inside the store
directory (``<name>.journal.jsonl``), using the versioned one-line
envelopes from :mod:`repro.core.config_io`:

* a ``meta`` line pinning the sweep identity (the *spec digest*: points,
  seeds and every outcome-affecting engine knob), and
* a ``point`` line per completed point (its deterministic payload, its
  memo counter deltas and a content-addressed key derived from the
  point's SHA-256 seed) — each line is its own commit record.

The point is the unit of commit because a point's outcome depends on
nothing but the point: Algorithm 1 is exact and pure, so the solver memo
a point ran against changes its counters, never its payload.

Durability model: every line is written, flushed and fsynced before the
engine acknowledges its point.  A crash can at worst truncate the final
line; readers stop at the first ragged line and treat everything after
it as not journaled.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.config_io import (
    JournalError,
    dump_journal_entry,
    make_journal_entry,
    parse_journal_entry,
)
from .runner import PointOutcome
from .sweep import SweepError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .sweep import Sweep

__all__ = ["ResultStore", "StoreMismatch", "StoreSession", "point_key", "sweep_fingerprint"]

#: journaled points by sweep index: ``{index: (outcome, memo counter deltas)}``
Completed = dict[int, tuple[PointOutcome, dict[str, Any]]]


class StoreMismatch(SweepError):
    """A resume was requested against a journal for a different sweep."""


def sweep_fingerprint(
    sweep: "Sweep",
    retries: int,
    timeout: float | None,
    cache: bool,
) -> str:
    """SHA-256 identity of everything that shapes deterministic outcomes.

    Two runs share a fingerprint iff their journaled results are
    interchangeable: same points (ids, params, seeds), same
    retry/timeout/cache policy (attempt counts and error strings).
    Wall-clock knobs (backoff, workers, executor) are excluded — they
    change timing, never payloads.
    """
    task = sweep.task
    ident = {
        "name": sweep.name,
        "seed": sweep.seed,
        "task": f"{getattr(task, '__module__', '?')}.{getattr(task, '__qualname__', repr(task))}",
        "retries": retries,
        "timeout": timeout,
        "cache": cache,
        "points": [
            {"id": p.id, "seed": p.seed, "params": dict(p.params)}
            for p in sweep.points
        ],
    }
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def point_key(spec_digest: str, index: int, point_id: str, seed: int) -> str:
    """Content address of one point outcome within a journaled sweep.

    Derived from the sweep's spec digest and the point's own SHA-256 seed:
    the same point of the same spec always lands at the same key, which is
    what makes re-dispatched points exactly-once in the merged output —
    a duplicate landing simply overwrites its identical twin.
    """
    blob = json.dumps(
        {"spec": spec_digest, "index": index, "id": point_id, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultStore:
    """A directory of per-sweep journals (create it lazily, share it freely)."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def journal_path(self, sweep_name: str) -> Path:
        return self.directory / f"{sweep_name}.journal.jsonl"

    def begin(
        self,
        sweep_name: str,
        spec_digest: str,
        resume: bool = False,
    ) -> "StoreSession":
        """Open (or adopt) the journal for ``sweep_name``.

        * journal absent → start fresh (``resume=True`` is an error: there
          is nothing to resume);
        * journal matches ``spec_digest`` → adopt its completed points
          (resumed runs *and* identical re-runs become cache hits);
        * journal mismatches → with ``resume`` raise :class:`StoreMismatch`
          (never silently splice incompatible results), otherwise rotate
          the stale journal to ``*.bak`` and start fresh.
        """
        path = self.journal_path(sweep_name)
        completed: Completed = {}
        if path.exists():
            meta, points = _read_journal(path)
            if meta is not None and meta.get("spec") == spec_digest:
                completed = points
            elif resume:
                have = f"{meta.get('spec', '?')[:16]}…" if meta else "no meta"
                raise StoreMismatch(
                    f"journal {path} was written by a different sweep spec "
                    f"or journal version (have {have}, need "
                    f"{spec_digest[:16]}…); refusing to resume — delete the "
                    "journal or point --store elsewhere"
                )
            else:
                _rotate(path)
        elif resume:
            raise StoreMismatch(
                f"cannot resume: no journal at {path} (run once with "
                "--store first, or drop --resume)"
            )
        fresh = not path.exists()
        fh = path.open("a", encoding="utf-8")
        session = StoreSession(
            path=path,
            handle=fh,
            spec_digest=spec_digest,
            completed=completed,
        )
        if fresh:
            session._write(make_journal_entry("meta", {
                "name": sweep_name,
                "spec": spec_digest,
            }))
        return session


class StoreSession:
    """One open journal: adopted points plus an append handle for new ones."""

    def __init__(
        self,
        path: Path,
        handle,
        spec_digest: str,
        completed: Completed,
    ) -> None:
        self.path = path
        self.spec_digest = spec_digest
        #: points adopted from disk at begin() — the resume/cache-hit set
        self.completed = completed
        #: point outcomes served from the journal instead of executed
        self.hits = len(completed)
        self._handle = handle

    def record_point(
        self,
        index: int,
        outcome: PointOutcome,
        stats: dict[str, Any],
    ) -> None:
        """Durably journal one completed point: its line is its commit."""
        if index in self.completed:
            return  # idempotent: a re-dispatched twin already landed
        self._write(make_journal_entry("point", {
            "index": index,
            "key": point_key(self.spec_digest, index, outcome.id, outcome.seed),
            "outcome": outcome.payload(),
            "wall_ms": outcome.wall_ms,
            "stats": stats,
        }))

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "StoreSession":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc) -> None:  # pragma: no cover - convenience
        self.close()

    def _write(self, entry: dict[str, Any]) -> None:
        self._handle.write(dump_journal_entry(entry) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())


def _rotate(path: Path) -> None:
    """Move a stale journal aside (never destroy results silently)."""
    backup = path.with_suffix(path.suffix + ".bak")
    n = 1
    while backup.exists():
        backup = path.with_suffix(path.suffix + f".bak{n}")
        n += 1
    path.replace(backup)


def _read_journal(path: Path) -> tuple[dict[str, Any] | None, Completed]:
    """Parse a journal: ``(meta, completed_points)``.

    Reading stops at the first malformed line (a crash mid-append leaves at
    most one, at the very end); everything before it is trusted, everything
    after it is treated as never written.
    """
    meta: dict[str, Any] | None = None
    completed: Completed = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = parse_journal_entry(line)
            except JournalError:
                break
            if entry["kind"] == "meta":
                meta = entry
            else:
                completed[entry["index"]] = (
                    PointOutcome.from_payload(
                        entry["outcome"], wall_ms=entry["wall_ms"]
                    ),
                    entry["stats"],
                )
    return meta, completed
