"""Unit tests for the trace recorder."""

from __future__ import annotations

import gc

from repro.chaos import DesChaosInjector, Fault, FaultPlan
from repro.des import TraceRecord, TraceRecorder, trace
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.recovery import RecoveryManager


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


def _reachable(root):
    """Every object reachable from ``root`` (classes not followed)."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, type):
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


class TestStorageShape:
    """The trace is columns: views are built on read, never kept."""

    def test_a_traced_faulted_run_keeps_no_trace_record(self):
        plan = FaultPlan(seed=2, faults=(
            Fault("drop", p=0.1, start=20.0, end=160.0, frames=("app",)),
            Fault("duplicate", p=0.1, start=20.0, end=160.0),
            Fault("slow-flush", p=0.5, start=5.0, end=160.0, delay=0.5),
            Fault("crash", pid=5, at=100.0)))

        def before_run(sim, net, storage, runtime):
            DesChaosInjector(sim, net, plan).attach_storage(storage)
            RecoveryManager(runtime).crash_and_recover(5, 100.0)

        result = run_experiment(ExperimentConfig(
            n=6, seed=2, horizon=200.0, workload="half_silent",
            checkpoint_interval=30.0, timeout=10.0, verify=True,
            trace_enabled=True), before_run=before_run)
        t = result.sim.trace
        assert result.ok and t.count("chaos.duplicate") > 0
        gc.collect()
        assert not any(type(o) is TraceRecord for o in gc.get_objects())
        # The collector untracks dicts of atomic values, so per-record
        # payload dicts would not show above: walk what the trace holds.
        held = _reachable(t)
        assert sum(type(o) is dict for o in held) < len(t) // 100

    def test_kind_queries_build_only_the_views_they_return(self, monkeypatch):
        t = TraceRecorder()
        for i in range(50):
            t.record(float(i), "msg.send", i % 3, uid=i)
            t.record(float(i), "msg.deliver", 1, uid=i)
        t.record(60.0, "ckpt.finalize", 0, csn=1)
        built = []

        def counting(*args):
            built.append(args)
            return TraceRecord(*args)

        monkeypatch.setattr(trace, "TraceRecord", counting)
        assert t.count("msg.send") == 50
        assert t.count("msg.send", process=0) == 17
        assert t.count(prefix="ckpt") == 1
        assert t.kinds()["msg.deliver"] == 50
        assert built == []
        recs = t.filter("ckpt.finalize")
        assert len(built) == 1 and recs[0].data == {"csn": 1}
        assert [r.data["uid"] for r in t.filter("msg.send", process=2)] == \
            list(range(2, 50, 3))
        assert len(built) == 1 + 16
