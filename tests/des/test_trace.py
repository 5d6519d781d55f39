"""Unit tests for the trace recorder."""

from __future__ import annotations

from repro.des import TraceRecorder
from repro.harness.experiment import ExperimentConfig, run_experiment


def make_trace() -> TraceRecorder:
    t = TraceRecorder()
    t.record(1.0, "msg.send", 0, uid=1)
    t.record(2.0, "msg.deliver", 1, uid=1)
    t.record(3.0, "ckpt.tentative", 0, csn=1)
    t.record(4.0, "msg.send", 1, uid=2)
    t.record(5.0, "ckpt.finalize", 0, csn=1)
    return t


class TestRecording:
    def test_records_appended_in_order(self):
        t = make_trace()
        assert [r.time for r in t] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(t) == 5

    def test_seq_totally_orders_records(self):
        t = TraceRecorder()
        t.record(1.0, "a", 0)
        t.record(1.0, "b", 0)
        seqs = [r.seq for r in t]
        assert seqs == sorted(seqs) and len(set(seqs)) == 2

    def test_disabled_recorder_drops_records(self):
        t = TraceRecorder(enabled=False)
        t.record(1.0, "x", 0)
        assert len(t) == 0

    def test_data_kwarg_named_kind_allowed(self):
        # The network traces message kind under the 'kind' data key, which
        # must not collide with the record's own positional kind.
        t = TraceRecorder()
        t.record(1.0, "msg.send", 0, kind="app")
        assert t.records[0].kind == "msg.send"
        assert t.records[0].data["kind"] == "app"

    def test_subscriber_sees_every_record(self):
        t = TraceRecorder()
        seen = []
        t.subscribe(seen.append)
        t.record(1.0, "a", 0)
        t.record(2.0, "b", 1)
        assert [r.kind for r in seen] == ["a", "b"]

    def test_trace_off_run_never_calls_the_recorder(self, monkeypatch):
        # Every emission site tests ``trace.enabled`` before packing its
        # keyword arguments, stable-storage writes included.
        calls = []
        monkeypatch.setattr(TraceRecorder, "record",
                            lambda self, *a, **kw: calls.append(a[1]))
        result = run_experiment(ExperimentConfig(
            n=16, seed=0, horizon=300.0, latency="constant",
            latency_kwargs={"delay": 0.35}, workload="ring",
            workload_kwargs={"period": 1.0, "msg_size": 256},
            state_bytes=1_000_000, verify=False, trace_enabled=False))
        assert result.storage.completed() > 0
        assert calls == []


class TestQuerying:
    def test_filter_by_kind(self):
        t = make_trace()
        assert len(t.filter("msg.send")) == 2

    def test_filter_by_prefix(self):
        t = make_trace()
        assert len(t.filter(prefix="msg")) == 3
        assert len(t.filter(prefix="ckpt")) == 2

    def test_prefix_does_not_match_partial_segment(self):
        t = TraceRecorder()
        t.record(1.0, "msgx.send", 0)
        assert t.filter(prefix="msg") == []

    def test_filter_by_process(self):
        t = make_trace()
        assert len(t.filter(process=0)) == 3

    def test_combined_filters(self):
        t = make_trace()
        recs = t.filter("msg.send", process=1)
        assert len(recs) == 1 and recs[0].data["uid"] == 2

    def test_first_and_last(self):
        t = make_trace()
        assert t.first("msg.send").time == 1.0
        assert t.last("msg.send").time == 4.0
        assert t.first("nope") is None
        assert t.last("msg.send", process=0).time == 1.0

    def test_count(self):
        t = make_trace()
        assert t.count("msg.send") == 2
        assert t.count(prefix="ckpt") == 2
        assert t.count(prefix="ckpt", process=1) == 0

    def test_kinds_histogram(self):
        t = make_trace()
        assert t.kinds() == {"msg.send": 2, "msg.deliver": 1,
                             "ckpt.tentative": 1, "ckpt.finalize": 1}

    def test_signature_equality(self):
        assert make_trace().signature() == make_trace().signature()
