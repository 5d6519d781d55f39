"""Span self-time arithmetic: nested, sibling and overlapping children."""

import json

import pytest

from ledger.spans import SpanRecorder


def test_self_time_subtracts_nested_and_sibling_children():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("a.inner", 2.0, 3.0, parent=a)
    rec.add("b", 5.0, 9.0, parent=root)
    self_s = rec.self_times()
    assert self_s[root] == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_s[a] == pytest.approx(3.0 - 1.0)
    assert self_s[2] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_clipped():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    rec.add("x", 1.0, 6.0, parent=root)
    rec.add("y", 4.0, 8.0, parent=root)       # overlaps x on [4, 6]
    rec.add("z", 9.0, 12.0, parent=root)      # runs past the parent's end
    assert rec.self_times()[root] == pytest.approx(10.0 - 7.0 - 1.0)


def test_context_manager_nests_and_writes_jsonl(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", workload="w") as outer:
        with rec.span("inner"):
            pass
    assert rec.spans[1]["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= rec.spans[1]["start"] <= rec.spans[1]["end"] \
        <= outer["end"]
    assert rec.duration("outer") == outer["end"] - outer["start"]
    rec.write_jsonl(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["outer", "inner"]
    assert json.loads(lines[0])["workload"] == "w"


def test_span_cannot_end_before_it_starts():
    with pytest.raises(ValueError):
        SpanRecorder().add("bad", 2.0, 1.0)
