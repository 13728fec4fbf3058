"""ResultStore: journaling, resume semantics, crash tolerance, identity."""

import json
import os

import pytest

from repro.core.config_io import (
    JournalError,
    dump_journal_entry,
    make_journal_entry,
    parse_journal_entry,
)
from repro.exp import (
    ResultStore,
    StoreMismatch,
    Sweep,
    SweepInterrupted,
    point_key,
    run_sweep,
    sweep_fingerprint,
)
from repro.exp.runner import PointOutcome
from repro.exp.tasks import fig8_min_buffer


def echo_task(params, ctx):
    return {"params": dict(params), "seed": ctx.seed}


def counting_task(params, ctx):
    """Echo, leaving one mark per evaluation in the ``marks`` directory."""
    with open(os.path.join(params["marks"], f"a{params['a']}"), "a") as fh:
        fh.write("x")
    return {"a": params["a"], "seed": ctx.seed}


def evaluations(marks):
    """How often each point of a ``counting_task`` sweep was evaluated."""
    return {path.name: len(path.read_text()) for path in marks.iterdir()}


def other_task(params, ctx):
    return {"v": 0}


def make_sweep(name="stored", n=6, seed=3):
    return Sweep(name, echo_task, [{"a": i} for i in range(n)], seed=seed)


def outcome(i):
    return PointOutcome(id=f"p{i}", params={"a": i}, seed=i, value={"a": i})


# -- journal envelope ---------------------------------------------------------

def test_journal_entry_round_trips():
    entry = make_journal_entry("point", {"index": 3, "key": "k", "stats": {}})
    line = dump_journal_entry(entry)
    assert "\n" not in line
    assert parse_journal_entry(line) == entry


def test_journal_entry_rejects_unknown_kind():
    for kind in ("nope", "chunk"):
        with pytest.raises(JournalError, match="unknown journal kind"):
            make_journal_entry(kind, {})


def test_journal_entry_rejects_envelope_shadowing():
    with pytest.raises(JournalError, match="shadows envelope"):
        make_journal_entry("meta", {"schema": "x"})


def test_parse_rejects_garbage_line():
    with pytest.raises(JournalError, match="invalid journal line"):
        parse_journal_entry("{not json")


def test_parse_rejects_wrong_version():
    entry = make_journal_entry("meta", {"name": "s"})
    entry["version"] = 99
    with pytest.raises(JournalError, match="unsupported journal version"):
        parse_journal_entry(json.dumps(entry))


# -- identity -----------------------------------------------------------------

def test_fingerprint_pins_every_outcome_affecting_knob():
    sweep = make_sweep()
    base = sweep_fingerprint(sweep, 0, None, True)
    assert base == sweep_fingerprint(make_sweep(), 0, None, True)
    assert base != sweep_fingerprint(sweep, 1, None, True)      # retries
    assert base != sweep_fingerprint(sweep, 0, 5.0, True)       # timeout
    assert base != sweep_fingerprint(sweep, 0, None, False)     # cache
    assert base != sweep_fingerprint(make_sweep(seed=4), 0, None, True)
    assert base != sweep_fingerprint(make_sweep(n=5), 0, None, True)
    assert base != sweep_fingerprint(
        Sweep("stored", other_task, [{"a": 0}]), 0, None, True
    )


def test_point_key_is_content_addressed():
    a = point_key("spec", 1, "p1", 42)
    assert a == point_key("spec", 1, "p1", 42)
    assert a != point_key("spec2", 1, "p1", 42)
    assert a != point_key("spec", 2, "p1", 42)
    assert a != point_key("spec", 1, "p2", 42)
    assert a != point_key("spec", 1, "p1", 43)


# -- begin / record / replay --------------------------------------------------

def test_fresh_store_then_full_replay(tmp_path):
    store = ResultStore(tmp_path)
    session = store.begin("s", "spec1")
    assert session.completed == {}
    session.record_point(0, outcome(0), {"lookups": 1})
    session.record_point(2, outcome(2), {"lookups": 1, "hits": 1})
    session.close()

    again = store.begin("s", "spec1", resume=True)
    assert sorted(again.completed) == [0, 2]
    out, stats = again.completed[2]
    assert out.payload() == outcome(2).payload()
    assert stats == {"lookups": 1, "hits": 1}
    assert again.hits == 2
    again.close()


def test_record_point_is_idempotent(tmp_path):
    store = ResultStore(tmp_path)
    session = store.begin("s", "spec1")
    session.record_point(0, outcome(0), {})
    session.close()
    session = store.begin("s", "spec1")
    # a re-dispatched twin landing again must not duplicate journal entries
    session.record_point(0, outcome(0), {})
    session.close()
    lines = store.journal_path("s").read_text().splitlines()
    assert sum(1 for ln in lines if '"kind":"point"' in ln) == 1


def test_resume_without_journal_is_an_error(tmp_path):
    with pytest.raises(StoreMismatch, match="cannot resume"):
        ResultStore(tmp_path).begin("s", "spec1", resume=True)


def test_resume_against_mismatched_spec_is_an_error(tmp_path):
    store = ResultStore(tmp_path)
    store.begin("s", "spec1").close()
    with pytest.raises(StoreMismatch, match="different sweep spec"):
        store.begin("s", "spec2", resume=True)


def test_mismatched_journal_is_rotated_not_destroyed(tmp_path):
    store = ResultStore(tmp_path)
    session = store.begin("s", "spec1")
    session.record_point(0, outcome(0), {})
    session.close()
    fresh = store.begin("s", "spec2")
    assert fresh.completed == {}
    fresh.close()
    backups = list(tmp_path.glob("s.journal.jsonl.bak*"))
    assert len(backups) == 1
    assert '"kind":"point"' in backups[0].read_text()


def test_truncated_tail_line_is_tolerated(tmp_path):
    store = ResultStore(tmp_path)
    session = store.begin("s", "spec1")
    session.record_point(0, outcome(0), {})
    session.close()
    path = store.journal_path("s")
    # simulate a crash mid-append: a ragged, half-written final line
    with path.open("a") as fh:
        fh.write('{"schema":"repro.journal","version":2,"kind":"poi')
    session = store.begin("s", "spec1", resume=True)
    assert sorted(session.completed) == [0]
    session.close()


def _legacy_line(kind, **body):
    return json.dumps({"schema": "repro.journal", "version": 1, "kind": kind,
                       **body}, sort_keys=True, separators=(",", ":"))


def _legacy_point(pos, eta, seed):
    return _legacy_line(
        "point", chunk=0, pos=pos, key=f"k{pos}", wall_ms=0.45,
        outcome={"id": f"eta={eta}", "params": {"eta": eta}, "seed": seed,
                 "value": {"alpha": 4 + eta, "eta": eta}, "error": None,
                 "attempts": 1, "retry_seed": None},
    )


#: what the chunked engine journaled for ``legacy_sweep()`` with the default
#: four-point chunks: points committed together by a ``chunk`` marker
LEGACY_JOURNAL = "\n".join([
    _legacy_line(
        "meta", name="legacy", chunk_count=1,
        spec="f300c6f771428452d2fd642c0967d4bb6757b957760e70bab0f572c2c6fe3a98",
    ),
    _legacy_point(0, 1, 96296959),
    _legacy_point(1, 2, 2706909017),
    _legacy_line("chunk", chunk=0, points=2, stats={"lookups": 0, "hits": 0}),
]) + "\n"


def legacy_sweep():
    return Sweep.grid("legacy", fig8_min_buffer, axes={"eta": [1, 2]})


def test_chunk_journal_is_rotated_or_refused(tmp_path):
    """A journal of the chunked engine is never spliced into a run."""
    path = ResultStore(tmp_path).journal_path("legacy")
    path.write_text(LEGACY_JOURNAL)
    with pytest.raises(StoreMismatch, match="journal version"):
        run_sweep(legacy_sweep(), workers=1, store=tmp_path, resume=True)
    assert path.read_text() == LEGACY_JOURNAL
    fresh = run_sweep(legacy_sweep(), workers=1, store=tmp_path)
    assert fresh.store_hits == 0
    (backup,) = tmp_path.glob("legacy.journal.jsonl.bak*")
    assert backup.read_text() == LEGACY_JOURNAL
    assert '"kind":"chunk"' not in path.read_text()


# -- engine integration -------------------------------------------------------

def test_identical_rerun_is_a_pure_cache_hit(tmp_path):
    sweep = make_sweep()
    first = run_sweep(sweep, workers=1, store=tmp_path)
    assert first.store_hits == 0
    again = run_sweep(sweep, workers=1, store=tmp_path)
    assert again.store_hits == 6
    assert again.digest() == first.digest()
    assert again.payload() == first.payload()


def test_interrupted_run_resumes_bit_identically(tmp_path):
    sweep = make_sweep(n=10)
    baseline = run_sweep(sweep, workers=1)
    with pytest.raises(SweepInterrupted) as err:
        run_sweep(sweep, workers=1, store=tmp_path, interrupt_after=1)
    assert err.value.completed_points == 1
    assert err.value.point_count == 10
    resumed = run_sweep(sweep, workers=1, store=tmp_path, resume=True)
    assert resumed.store_hits == 1
    assert resumed.digest() == baseline.digest()
    assert [o.id for o in resumed.outcomes] == [p.id for p in sweep.points]


@pytest.mark.parametrize("k", [1, 3])
def test_interrupt_after_k_journals_k_points_and_resume_runs_the_rest(
    tmp_path, k
):
    marks = tmp_path / "marks"
    marks.mkdir()
    sweep = Sweep("counted", counting_task,
                  [{"a": i, "marks": str(marks)} for i in range(6)], seed=1)
    store = tmp_path / "store"
    with pytest.raises(SweepInterrupted) as err:
        run_sweep(sweep, workers=1, store=store, interrupt_after=k)
    assert (err.value.completed_points, err.value.point_count) == (k, 6)
    lines = ResultStore(store).journal_path("counted").read_text().splitlines()
    assert sum('"kind":"point"' in ln for ln in lines) == k
    assert evaluations(marks) == {f"a{i}": 1 for i in range(k)}
    resumed = run_sweep(sweep, workers=1, store=store, resume=True)
    assert resumed.store_hits == k
    # the resumed run evaluated only the points the journal lacked
    assert evaluations(marks) == {f"a{i}": 1 for i in range(6)}
    assert resumed.digest() == run_sweep(sweep, workers=1).digest()


def test_changed_engine_knobs_invalidate_the_journal(tmp_path):
    sweep = make_sweep()
    run_sweep(sweep, workers=1, store=tmp_path)
    with pytest.raises(StoreMismatch):
        run_sweep(sweep, workers=1, store=tmp_path, resume=True, retries=1)
    # without --resume the stale journal rotates and the run starts fresh
    redo = run_sweep(sweep, workers=1, store=tmp_path, retries=1)
    assert redo.store_hits == 0
    assert redo.ok


def test_resume_requires_store():
    from repro.exp import SweepError

    with pytest.raises(SweepError, match="needs a store"):
        run_sweep(make_sweep(), workers=1, resume=True)
