"""Work-queue worker process: ``python -m repro.exp.worker QUEUE_DIR``.

One side of the file-protocol queue spoken by
:class:`repro.exp.executors.WorkQueueExecutor`.  The loop is deliberately
crash-oblivious — every step either commits atomically (``os.rename`` /
``os.replace``) or leaves debris the parent knows how to reclaim:

1. claim the lexicographically first task by renaming it from ``tasks/``
   into ``claims/`` (atomic; losing the race just means trying the next);
2. publish an owner sidecar (``<point>.pkl.owner``: pid + wall-clock) so
   the parent can lease-police and attribute the claim after a crash;
3. evaluate the point with the shared :class:`~repro.exp.runner.PointRunner`
   loop — byte-identical semantics to the serial backend;
4. commit the result by ``os.replace`` of a fully-written temp file into
   ``results/`` (readers never observe a torn result);
5. release the claim and loop; exit once the ``stop`` sentinel exists and
   no tasks remain.

A worker SIGKILLed at any step between 1 and 5 leaves either a claim the
parent re-queues (crash before commit) or a committed result plus a stale
claim the parent ignores (crash after commit) — never a lost or a
half-visible point.  A worker serves one sweep: it unpickles ``runner.pkl``
once, so its Algorithm 1 memo lives for every point it evaluates.  A
worker that cannot unpickle ``runner.pkl`` (say, a task defined in the
parent's ``__main__``) writes why to ``runner-error``.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from pathlib import Path

#: idle sleep between queue scans; small enough that tests stay snappy
_IDLE_S = 0.02


def _try_claim(tasks: Path, claims: Path, name: str) -> bool:
    try:
        os.rename(tasks / name, claims / name)
        return True
    except OSError:
        return False


def serve(queue_dir: str | Path) -> int:
    """Run the claim/evaluate/commit loop until the stop sentinel appears."""
    root = Path(queue_dir)
    tasks, claims, results = root / "tasks", root / "claims", root / "results"
    with (root / "runner.pkl").open("rb") as fh:
        try:
            runner = pickle.load(fh)
        except Exception as exc:
            # the parent fails fast on this: a respawned worker would die alike
            tmp = root / f"runner-error.{os.getpid()}.tmp"
            tmp.write_text(f"{type(exc).__name__}: {exc}")
            os.replace(tmp, root / "runner-error")
            return 1
    while True:
        claimed = None
        try:
            names = sorted(n for n in os.listdir(tasks) if n.endswith(".pkl"))
        except FileNotFoundError:
            return 0  # parent tore the queue down
        for name in names:
            if _try_claim(tasks, claims, name):
                claimed = name
                break
        if claimed is None:
            if (root / "stop").exists():
                return 0
            time.sleep(_IDLE_S)
            continue
        owner = claims / (claimed + ".owner")
        with owner.open("w") as fh:
            fh.write(f"{os.getpid()} {time.time()}")
        # chaos-armed queues ask workers to hold between claim and execute
        # so the parent provably observes the claim and can strike mid-point
        try:
            hold = float((root / "chaos-hold").read_text())
        except (OSError, ValueError):
            hold = 0.0
        if hold > 0.0:
            time.sleep(hold)
        try:
            with (claims / claimed).open("rb") as fh:
                point = pickle.load(fh)
        except OSError:
            continue  # parent reclaimed it during the owner-write window
        result = runner.run(point)
        tmp = results / (claimed + ".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, results / claimed)
        for leftover in (claims / claimed, owner):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.exp.worker QUEUE_DIR", file=sys.stderr)
        return 2
    return serve(argv[0])


if __name__ == "__main__":
    raise SystemExit(main())
