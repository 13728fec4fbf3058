"""Sweep specifications: what the experiment engine fans out.

A :class:`Sweep` is a named, validated list of :class:`SweepPoint`\\ s plus
the *task* — a picklable module-level callable evaluated once per point in
a worker process.  The paper's evaluation is exactly this shape: families
of parameter variations (block sizes η_s, buffer capacities, stream
counts, entry-copy costs — Fig. 8/10/11, Table I) each mapped through one
analysis or simulation function.

Validation is **eager** (ConfigBus-style): empty grids, duplicate point
ids, unpicklable tasks or parameters and non-JSON-serialisable parameters
are rejected at construction time with a message naming the offending
point, instead of surfacing as an opaque pickling traceback inside a
worker process minutes into a run.

Per-point seeds are derived deterministically from the sweep seed, the
sweep name and the point id (SHA-256), so a point's seed never depends on
execution order, worker count or resume history — a prerequisite for the
engine's serial ≡ parallel bit-identity guarantee.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = ["Sweep", "SweepPoint", "SweepError", "point_seed",
           "scenario_corpus"]


class SweepError(ValueError):
    """Raised for invalid sweep specifications (eager, pre-execution)."""


def point_seed(sweep_seed: int, sweep_name: str, point_id: str) -> int:
    """Deterministic 32-bit seed for one point, stable across processes."""
    digest = hashlib.sha256(
        f"{sweep_seed}:{sweep_name}:{point_id}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation of the task: an id, its parameters, and its seed."""

    id: str
    params: Mapping[str, Any]
    seed: int = 0


class Sweep:
    """A validated experiment specification.

    Parameters
    ----------
    name:
        Artifact name; results persist as ``BENCH_<name>.json``.
    task:
        Module-level callable ``task(params, ctx) -> dict`` evaluated per
        point (``ctx`` is a :class:`repro.exp.engine.PointContext`).  Must
        be picklable — lambdas and closures are rejected up front.  May
        also be a string: a built-in task name from
        :mod:`repro.exp.tasks`, or a ``scenario://`` registry reference
        (which implies the ``"scenario"`` task with the reference's
        validated parameters folded under every point's params).
    points:
        The points: :class:`SweepPoint` objects (seeds are re-derived),
        ``{"id": ..., "params": {...}}`` mappings (explicit ids — the JSON
        spec form), or plain param mappings (ids are synthesised).
    seed:
        Root seed all per-point seeds derive from.
    """

    def __init__(
        self,
        name: str,
        task: Callable[..., dict],
        points: Iterable[SweepPoint | Mapping[str, Any]],
        seed: int = 0,
    ) -> None:
        if not isinstance(name, str) or not name or not name.replace("_", "a").isalnum():
            raise SweepError(
                f"sweep name must be a non-empty alphanumeric/underscore "
                f"string (it names the BENCH_<name>.json artifact), got {name!r}"
            )
        self.name = name
        self.seed = int(seed)
        implied_base: Mapping[str, Any] = {}
        if isinstance(task, str):
            task, implied_base = _resolve_task_ref(task)
        self.task = _checked_task(task)
        built: list[SweepPoint] = []
        for i, p in enumerate(points):
            if isinstance(p, SweepPoint):
                pid, params = p.id, dict(p.params)
            elif isinstance(p, Mapping) and set(p) == {"id", "params"}:
                pid, params = p["id"], p["params"]
                if not isinstance(pid, str) or not pid:
                    raise SweepError(f"point #{i}: id must be a non-empty string")
                if not isinstance(params, Mapping):
                    raise SweepError(
                        f"point {pid!r}: 'params' must be a mapping, "
                        f"got {type(params).__name__}"
                    )
                params = dict(params)
            elif isinstance(p, Mapping):
                params = dict(p)
                pid = _synth_id(params, i)
            else:
                raise SweepError(
                    f"point #{i} must be a SweepPoint or a params mapping, "
                    f"got {type(p).__name__}"
                )
            if implied_base:
                params = {**implied_base, **params}
            _check_params(pid, params)
            built.append(
                SweepPoint(id=pid, params=params,
                           seed=point_seed(self.seed, name, pid))
            )
        if not built:
            raise SweepError(f"sweep {name!r} has no points (empty grid?)")
        ids = [p.id for p in built]
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise SweepError(f"sweep {name!r} has duplicate point ids: {dupes}")
        self.points: tuple[SweepPoint, ...] = tuple(built)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sweep({self.name!r}, {len(self.points)} points)"

    @classmethod
    def grid(
        cls,
        name: str,
        task: Callable[..., dict],
        axes: Mapping[str, Sequence[Any]],
        base: Mapping[str, Any] | None = None,
        seed: int = 0,
    ) -> "Sweep":
        """Cartesian-product sweep over ``axes``, merged over ``base``.

        Point ids are ``"k=v,k2=v2"`` in axis insertion order, so a grid's
        ids (and therefore seeds and artifact layout) are reproducible.
        """
        if not axes:
            raise SweepError(f"sweep {name!r}: empty axes mapping")
        for key, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise SweepError(
                    f"sweep {name!r}: axis {key!r} must be a sequence of values"
                )
            if len(values) == 0:
                raise SweepError(f"sweep {name!r}: axis {key!r} is empty")
        keys = list(axes)
        points = []
        for combo in product(*(axes[k] for k in keys)):
            params = dict(base or {})
            params.update(zip(keys, combo))
            pid = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
            points.append(SweepPoint(id=pid, params=params))
        return cls(name, task, points, seed=seed)


def _checked_task(task: Callable[..., dict]) -> Callable[..., dict]:
    if not callable(task):
        raise SweepError(f"task must be callable, got {type(task).__name__}")
    try:
        blob = pickle.dumps(task)
        if pickle.loads(blob) is None:  # pragma: no cover - defensive
            raise SweepError("task pickled to None")
    except SweepError:
        raise
    except Exception as err:
        raise SweepError(
            f"task {getattr(task, '__name__', task)!r} is not picklable "
            f"({err}); worker processes need a module-level function, not a "
            "lambda or closure"
        ) from None
    return task


def _check_params(pid: str, params: dict[str, Any]) -> None:
    try:
        pickle.dumps(params)
    except Exception as err:
        raise SweepError(
            f"point {pid!r}: parameters are not picklable ({err})"
        ) from None
    try:
        json.dumps(params, sort_keys=True)
    except (TypeError, ValueError) as err:
        raise SweepError(
            f"point {pid!r}: parameters are not JSON-serialisable ({err}); "
            "sweep results persist as JSON, so params must round-trip"
        ) from None


def _synth_id(params: Mapping[str, Any], index: int) -> str:
    if not params:
        return f"p{index}"
    try:
        return ",".join(f"{k}={params[k]}" for k in params)
    except Exception:  # pragma: no cover - exotic key types
        return f"p{index}"


def _resolve_task_ref(ref: str) -> "tuple[Callable[..., dict], dict[str, Any]]":
    """Resolve a string task: a built-in task name or a scenario reference.

    A ``scenario://`` reference implies the built-in ``"scenario"`` task
    with the reference's name and schema-validated parameters folded under
    every point's params — the shape ``repro sweep scenario://...`` and
    :func:`scenario_corpus` fan out.  Anything else is looked up in the
    :data:`repro.exp.tasks.TASKS` registry (friendly error on a miss).
    """
    from .tasks import get_task

    if ref.lstrip().startswith("scenario://"):
        from ..app.scenarios import ScenarioError, get as get_scenario, parse_ref

        try:
            name, raw = parse_ref(ref)
            values = get_scenario(name).validate(raw)
        except ScenarioError as err:
            raise SweepError(str(err)) from None
        return get_task("scenario"), {"scenario": name, **values}
    return get_task(ref), {}


def scenario_corpus(
    ref: str,
    points: int = 25,
    name: str | None = None,
    seed: int = 0,
    strict: bool = True,
) -> Sweep:
    """Fan one scenario reference into a seeded corpus sweep.

    The workhorse behind ``repro sweep scenario://generated?seed=N
    --points K``: point *i* builds the referenced scenario with seed
    ``base_seed + i`` and runs it through the ``scenario`` task.  With
    ``strict`` (the default) any unattributed Eq. 2–5 violation fails the
    point, so the sweep's exit code *is* the conformance gate.

    Only entries whose schema has a ``seed`` parameter (the generator) can
    fan out — any other entry is deterministic, so a multi-point corpus
    would repeat the identical run.
    """
    from ..app.scenarios import ScenarioError, get as get_scenario, parse_ref

    try:
        sname, raw = parse_ref(ref)
        definition = get_scenario(sname)
        values = definition.validate(raw)
    except ScenarioError as err:
        raise SweepError(str(err)) from None
    points = int(points)
    if points < 1:
        raise SweepError(f"corpus needs >= 1 point, got {points}")
    if name is None:
        name = f"scenario_corpus_{sname}"
    if "seed" in definition.schema:
        base_seed = int(values.get("seed", 0))
        base = {"scenario": sname, "strict": bool(strict),
                **{k: v for k, v in values.items() if k != "seed"}}
        axes = {"seed": [base_seed + i for i in range(points)]}
        return Sweep.grid(name, "scenario", axes, base=base, seed=seed)
    if points > 1:
        raise SweepError(
            f"scenario {sname!r} has no 'seed' parameter; a {points}-point "
            "corpus would repeat the identical run — use --points 1 or a "
            "generator-backed reference like scenario://generated?seed=0"
        )
    return Sweep(name, "scenario",
                 [{"scenario": sname, "strict": bool(strict), **values}],
                 seed=seed)
