"""Content-addressed, journal-backed result store for sweep runs.

Every completed chunk of a sweep is durably journaled as it lands, so

* an interrupted or killed run **resumes incrementally** — chunks whose
  marker made it to disk are replayed from the journal without executing
  a single task, and
* a **re-run of an identical sweep is a pure cache hit** — same spec,
  same chunking, same guard rails ⇒ every chunk replays from the store.

Layout: one append-only JSONL journal per sweep name inside the store
directory (``<name>.journal.jsonl``), using the versioned one-line
envelopes from :mod:`repro.core.config_io`:

* a ``meta`` line pinning the sweep identity (the *spec digest*: points,
  seeds, chunking and every outcome-affecting engine knob),
* a ``point`` line per completed point (its deterministic payload plus a
  content-addressed key derived from the point's SHA-256 seed), and
* a ``chunk`` marker once **all** of a chunk's points are on disk — the
  marker is the commit record; points without their marker are re-run.

Chunk granularity is load-bearing for bit-identity: a chunk's outcomes
depend on the chunk-local :class:`~repro.exp.cache.SolverCache` history
(its hit and miss counts), so a partially-journaled chunk
must be re-run *from its first point* — replaying half and executing the
rest would fabricate a cache history no serial run ever produced.

Durability model: lines are flushed per point and fsynced at each chunk
marker.  A crash can at worst truncate the final line; readers stop at
the first ragged line and treat everything after it as not journaled.
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


class StoreMismatch(SweepError):
    """A resume was requested against a journal for a different sweep."""


def sweep_fingerprint(
    sweep: "Sweep",
    chunk_size: int,
    retries: int,
    timeout: float | None,
    cache: bool,
) -> str:
    """SHA-256 identity of everything that shapes deterministic outcomes.

    Two runs share a fingerprint iff their journaled results are
    interchangeable: same points (ids, params, seeds), same chunking (cache
    history), same retry/timeout/cache policy (attempt counts and error
    strings).  Wall-clock knobs (backoff, workers, executor) are excluded —
    they change timing, never payloads.
    """
    task = sweep.task
    ident = {
        "name": sweep.name,
        "seed": sweep.seed,
        "task": f"{getattr(task, '__module__', '?')}.{getattr(task, '__qualname__', repr(task))}",
        "chunk_size": chunk_size,
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


def point_key(spec_digest: str, chunk_index: int, position: int,
              point_id: str, seed: int) -> str:
    """Content address of one point outcome within a journaled sweep.

    Derived from the sweep's spec digest and the point's own SHA-256 seed:
    the same point of the same spec always lands at the same key, which is
    what makes re-dispatched chunks exactly-once in the merged output —
    a duplicate landing simply overwrites its identical twin.
    """
    blob = json.dumps(
        {
            "spec": spec_digest,
            "chunk": chunk_index,
            "pos": position,
            "id": point_id,
            "seed": seed,
        },
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
        chunk_count: int,
        resume: bool = False,
    ) -> "StoreSession":
        """Open (or adopt) the journal for ``sweep_name``.

        * journal absent → start fresh (``resume=True`` is an error: there
          is nothing to resume);
        * journal matches ``spec_digest`` → adopt its completed chunks
          (resumed runs *and* identical re-runs become cache hits);
        * journal mismatches → with ``resume`` raise :class:`StoreMismatch`
          (never silently splice incompatible results), otherwise rotate
          the stale journal to ``*.bak`` and start fresh.
        """
        path = self.journal_path(sweep_name)
        completed: dict[int, tuple[list[PointOutcome], dict[str, Any]]] = {}
        if path.exists():
            meta, chunks, ragged = _read_journal(path)
            if meta is not None and meta.get("spec") == spec_digest:
                completed = chunks
            elif resume:
                raise StoreMismatch(
                    f"journal {path} was written by a different sweep spec "
                    f"(have {meta.get('spec', '?')[:16] if meta else 'no meta'}…, "
                    f"need {spec_digest[:16]}…); refusing to resume — "
                    "delete the journal or point --store elsewhere"
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
                "chunk_count": chunk_count,
            }), fsync=True)
        return session


class StoreSession:
    """One open journal: adopted chunks plus an append handle for new ones."""

    def __init__(
        self,
        path: Path,
        handle,
        spec_digest: str,
        completed: dict[int, tuple[list[PointOutcome], dict[str, Any]]],
    ) -> None:
        self.path = path
        self.spec_digest = spec_digest
        #: chunks adopted from disk at begin() — the resume/cache-hit set
        self.completed = completed
        #: point outcomes served from the journal instead of executed
        self.hits = sum(len(outs) for outs, _ in completed.values())
        self._handle = handle

    def record_chunk(
        self,
        chunk_index: int,
        outcomes: list[PointOutcome],
        stats: dict[str, Any],
    ) -> None:
        """Durably journal one completed chunk (points, then the marker)."""
        if chunk_index in self.completed:
            return  # idempotent: a re-dispatched twin already landed
        for position, outcome in enumerate(outcomes):
            self._write(make_journal_entry("point", {
                "chunk": chunk_index,
                "pos": position,
                "key": point_key(
                    self.spec_digest, chunk_index, position,
                    outcome.id, outcome.seed,
                ),
                "outcome": outcome.payload(),
                "wall_ms": outcome.wall_ms,
            }))
        self._write(make_journal_entry("chunk", {
            "chunk": chunk_index,
            "points": len(outcomes),
            "stats": stats,
        }), fsync=True)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "StoreSession":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc) -> None:  # pragma: no cover - convenience
        self.close()

    def _write(self, entry: dict[str, Any], fsync: bool = False) -> None:
        self._handle.write(dump_journal_entry(entry) + "\n")
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())


def _rotate(path: Path) -> None:
    """Move a stale journal aside (never destroy results silently)."""
    backup = path.with_suffix(path.suffix + ".bak")
    n = 1
    while backup.exists():
        backup = path.with_suffix(path.suffix + f".bak{n}")
        n += 1
    path.replace(backup)


def _read_journal(
    path: Path,
) -> tuple[
    dict[str, Any] | None,
    dict[int, tuple[list[PointOutcome], dict[str, Any]]],
    bool,
]:
    """Parse a journal: ``(meta, completed_chunks, ragged_tail)``.

    Reading stops at the first malformed line (a crash mid-append leaves at
    most one, at the very end); everything before it is trusted, everything
    after it is treated as never written.
    """
    meta: dict[str, Any] | None = None
    points: dict[tuple[int, int], PointOutcome] = {}
    markers: dict[int, dict[str, Any]] = {}
    ragged = False
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = parse_journal_entry(line)
            except JournalError:
                ragged = True
                break
            if entry["kind"] == "meta":
                meta = entry
            elif entry["kind"] == "point":
                points[(entry["chunk"], entry["pos"])] = PointOutcome.from_payload(
                    entry["outcome"], wall_ms=entry.get("wall_ms", 0.0)
                )
            elif entry["kind"] == "chunk":
                markers[entry["chunk"]] = entry
    completed: dict[int, tuple[list[PointOutcome], dict[str, Any]]] = {}
    for index, marker in markers.items():
        count = marker["points"]
        outcomes = []
        for position in range(count):
            outcome = points.get((index, position))
            if outcome is None:
                break  # marker without all its points: treat as incomplete
            outcomes.append(outcome)
        if len(outcomes) == count:
            completed[index] = (outcomes, marker.get("stats", {}))
    return meta, completed, ragged
