"""Unit tests for the tracing utilities."""

import pytest

from repro.sim import GanttRow, Kind, TraceRecord, Tracer


def test_tracer_records_in_order():
    t = Tracer()
    t.log(0, "gw", "admit", stream="s0")
    t.log(5, "acc", "sample")
    assert [r.kind for r in t.records] == ["admit", "sample"]
    assert t.records[0].data == {"stream": "s0"}


def test_tracer_disabled_drops_everything():
    t = Tracer(enabled=False)
    t.log(0, "gw", "admit")
    assert t.records == []


def test_tracer_kind_filter():
    t = Tracer(kinds={"admit"})
    t.log(0, "gw", "admit")
    t.log(1, "gw", "sample")
    assert t.count("admit") == 1
    assert t.count("sample") == 0


def test_tracer_by_kind_and_source():
    t = Tracer()
    t.log(0, "a", "x")
    t.log(1, "b", "x")
    t.log(2, "a", "y")
    assert len(t.by_kind("x")) == 2
    assert len(t.by_source("a")) == 2


def test_tracer_clear():
    t = Tracer()
    t.log(0, "a", "x")
    t.clear()
    assert t.records == []


def test_gantt_row_renders_segments():
    row = GanttRow("acc0", ((0, 10, "s0"), (10, 20, "t1")))
    text = row.render(scale=1, width=20)
    assert "acc0" in text
    assert "s" in text and "t" in text


def test_gantt_row_idle():
    row = GanttRow("acc0", ())
    assert "idle" in row.render()


# ------------------------------------------------------- structured tracer
def test_tracer_query_filters():
    t = Tracer()
    t.log(0, "gw", "admit", stream="a", block=0)
    t.log(4, "gw", "admit", stream="b", block=0)
    t.log(9, "gw", "admit", stream="a", block=1)
    t.log(9, "fifo", "put", word=1)
    assert [r.time for r in t.query(kind="admit", stream="a")] == [0, 9]
    assert [r.time for r in t.query(since=4, until=9)] == [4, 9, 9]
    assert [r.time for r in t.query(source="gw", since=5)] == [9]
    assert t.last("admit", stream="a").data["block"] == 1
    assert t.last("admit", stream="zzz") is None


def test_tracer_count_by_source():
    t = Tracer()
    t.log(0, "a", "x")
    t.log(1, "b", "x")
    assert t.count("x") == 2
    assert t.count("x", source="a") == 1
    assert t.counts() == {("a", "x"): 1, ("b", "x"): 1}
    t.clear()
    assert t.count("x") == 0 and t.counts() == {}


# ------------------------------------------------------------ record storage
def test_single_and_multi_field_rows_read_back_as_records():
    t = Tracer()
    t.log(3, "fifo", "put", word=1.5)
    t.log(4, "gw", "admit", stream="s0", block=2)
    t.log(5, "gw", "tile_failed")
    assert t.records == [
        TraceRecord(3, "fifo", "put", {"word": 1.5}),
        TraceRecord(4, "gw", "admit", {"stream": "s0", "block": 2}),
        TraceRecord(5, "gw", "tile_failed", {}),
    ]
    assert t.by_kind("put") == [TraceRecord(3, "fifo", "put", {"word": 1.5})]
    assert t.by_source("gw")[0].data == {"stream": "s0", "block": 2}
    assert t.last("put", word=1.5).time == 3
    assert [r.time for r in t.query(word=1.5)] == [3]


def test_keeps_reflects_the_filter():
    assert Tracer().keeps("fire")
    assert not Tracer(enabled=False).keeps("admit")
    metrics = Tracer(kinds=Kind.METRICS)
    assert metrics.keeps(Kind.ADMIT)
    assert metrics.keeps("send", Kind.BLOCK_DONE)  # any kept kind suffices
    # the harness filter keeps no per-word kind
    assert not metrics.keeps(Kind.PUT, Kind.GET)
    assert not metrics.keeps(Kind.FIRE, Kind.SEND, Kind.RECV, Kind.DELIVER)


def test_tracer_arguments_are_keyword_only():
    with pytest.raises(TypeError):
        Tracer(True)
