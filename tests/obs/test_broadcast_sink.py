"""BroadcastSink fan-out semantics and the any-stream DashboardSink.

The fan-out contract the serve event stream depends on: push sinks see
every event inline and in order; pull subscribers get bounded queues
that overflow *individually* (itemized in ``dropped_by_cause``) without
ever blocking the emitter or starving other subscribers; subscribers
attach and detach mid-run.
"""

from __future__ import annotations

import io
import threading

import pytest

from repro.obs.sinks import BroadcastSink, DashboardSink, MemorySink
from repro.obs.tracer import TraceEvent


def _point(i: int) -> TraceEvent:
    return TraceEvent(ev="point", host="harness", pid=-1, t=float(i),
                      name="sweep.run", attrs={"i": i})


# -- fan-out ---------------------------------------------------------------


def test_push_and_pull_subscribers_see_events_in_order():
    hub = BroadcastSink()
    mem = hub.add_sink(MemorySink())
    sub = hub.subscribe()
    events = [_point(i) for i in range(5)]
    for event in events:
        hub.write(event)
    assert hub.events_seen == 5
    assert mem.events == events
    assert sub.pop_all() == events
    assert sub.pop_all() == []          # drain is destructive
    assert sub.dropped == 0


def test_mid_run_subscribe_sees_only_subsequent_events():
    hub = BroadcastSink()
    hub.write(_point(0))
    hub.write(_point(1))
    late = hub.subscribe()
    hub.write(_point(2))
    assert [e.t for e in late.pop_all()] == [2.0]


def test_slow_subscriber_overflows_alone_and_itemized():
    hub = BroadcastSink()
    slow = hub.subscribe(maxlen=3)
    fast = hub.subscribe()              # default bound: plenty
    for i in range(5):
        hub.write(_point(i))
    assert [e.t for e in slow.pop_all()] == [0.0, 1.0, 2.0]
    assert slow.dropped_by_cause == {"overflow": 2}
    assert slow.dropped == 2
    # Only the slow queue lost events; the emitter never blocked.
    assert len(fast.pop_all()) == 5 and fast.dropped == 0


def test_unsubscribe_keeps_backlog_and_counts_late_events_as_closed():
    hub = BroadcastSink()
    sub = hub.subscribe()
    hub.write(_point(0))
    sub.close()
    hub.write(_point(1))
    hub.write(_point(2))
    assert [e.t for e in sub.pop_all()] == [0.0]   # backlog survives
    assert sub.dropped_by_cause == {"closed": 2}


def test_publish_reaches_pull_queues_but_not_push_sinks():
    hub = BroadcastSink()
    mem = hub.add_sink(MemorySink())
    sub = hub.subscribe()
    payload = {"schema": "repro.serve/1", "ev": "job.state",
               "state": "queued"}
    hub.publish(payload)
    assert sub.pop_all() == [payload]
    assert mem.events == []     # push sinks speak TraceEvent only


def test_remove_sink_and_close_detach_everyone():
    hub = BroadcastSink()
    mem = hub.add_sink(MemorySink())
    hub.remove_sink(mem)
    hub.remove_sink(mem)                # idempotent
    sub = hub.subscribe()
    hub.close()
    assert sub.closed
    hub.write(_point(0))                # reaches nobody, raises nothing
    assert mem.events == [] and sub.pop_all() == []


def test_maxlen_must_be_positive():
    with pytest.raises(ValueError, match="maxlen"):
        BroadcastSink(maxlen=0)


def test_concurrent_writers_lose_nothing():
    hub = BroadcastSink(maxlen=10_000)
    mem = hub.add_sink(MemorySink())
    sub = hub.subscribe()
    per_thread, threads = 200, 8

    def pump(k: int) -> None:
        for i in range(per_thread):
            hub.write(_point(k * per_thread + i))

    workers = [threading.Thread(target=pump, args=(k,))
               for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    total = per_thread * threads
    assert hub.events_seen == total
    assert len(mem.events) == total
    assert len(sub.pop_all()) == total and sub.dropped == 0


# -- wake-on-publish ---------------------------------------------------------


def test_wake_fires_once_per_empty_to_non_empty_transition():
    hub = BroadcastSink()
    wakes = []
    sub = hub.subscribe(wake=lambda: wakes.append(1))
    for i in range(1000):
        hub.publish(i)
    assert len(wakes) == 1              # a burst costs one wake-up
    assert len(sub.pop_all()) == 1000
    hub.write(_point(0))                # empty again -> a new transition
    hub.write(_point(1))
    assert len(wakes) == 2


def test_wake_fires_once_on_close_and_on_unsubscribe():
    hub = BroadcastSink()
    closed, left = [], []
    hub.subscribe(wake=lambda: closed.append(1))
    leaver = hub.subscribe(wake=lambda: left.append(1))
    leaver.close()
    assert left == [1]
    hub.close()                         # the leaver is not woken twice
    assert closed == [1] and left == [1]


def test_overflowed_subscriber_is_not_woken():
    hub = BroadcastSink()
    wakes = []
    sub = hub.subscribe(maxlen=2, wake=lambda: wakes.append(1))
    for i in range(5):
        hub.publish(i)
    assert wakes == [1]                 # the first event; no drop woke it
    assert sub.dropped_by_cause == {"overflow": 3}


def test_raising_wake_neither_loses_events_nor_reaches_the_emitter():
    hub = BroadcastSink()

    def gone() -> None:
        raise RuntimeError("Event loop is closed")

    broken = hub.subscribe(wake=gone)
    other = hub.subscribe()
    hub.write(_point(0))                # must not raise
    hub.publish("payload")
    assert [_point(0), "payload"] == other.pop_all() == broken.pop_all()
    hub.close()                         # close wakes too; still silent


# -- DashboardSink over any text stream ------------------------------------


def test_dashboard_renders_on_any_object_with_write():
    class BareStream:                   # no flush, not a file
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append(text)

    stream = BareStream()
    dash = DashboardSink(stream, refresh_every=2)
    dash.write(TraceEvent(ev="span.start", host="harness", pid=-1,
                          t=0.0, phase="run", key="x"))
    assert stream.lines == []           # below the refresh threshold
    dash.write(TraceEvent(ev="span.end", host="harness", pid=-1,
                          t=1.0, phase="run", key="x"))
    assert len(stream.lines) == 1 and "run=1" in stream.lines[0]
    dash.write(_point(2))
    dash.close()                        # renders the remainder
    assert len(stream.lines) == 2


def test_dashboard_accepts_stringio_and_flushes_when_possible():
    buf = io.StringIO()
    dash = DashboardSink(buf, refresh_every=1)
    dash.write(_point(0))
    dash.close()
    assert "1 events" in buf.getvalue()


def test_dashboard_rejects_streams_without_write():
    with pytest.raises(TypeError, match="write"):
        DashboardSink(object())
    with pytest.raises(ValueError, match="refresh_every"):
        DashboardSink(io.StringIO(), refresh_every=0)
