"""Priority FIFO ordering, record state machine, durable store recovery."""

from __future__ import annotations

import json

import pytest

from repro.serve import JobQueue, JobRecord, JobStore, ProtocolError, Scheduler
from repro.serve.protocol import state_event


# -- queue -----------------------------------------------------------------


def test_fifo_within_one_priority():
    q = JobQueue()
    for i, jid in enumerate(["a", "b", "c"]):
        q.push(jid, priority=0, seq=i)
    assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]
    assert q.pop() is None


def test_higher_priority_preempts_submission_order():
    q = JobQueue()
    q.push("early-low", priority=0, seq=1)
    q.push("late-high", priority=5, seq=2)
    q.push("mid", priority=1, seq=3)
    assert [q.pop(), q.pop(), q.pop()] == ["late-high", "mid", "early-low"]


def test_remove_supports_cancel_while_queued():
    q = JobQueue()
    q.push("a", seq=1)
    q.push("b", seq=2)
    assert q.remove("a")
    assert not q.remove("a")            # already gone
    assert not q.remove("zz")           # never queued
    assert "a" not in q and "b" in q
    assert q.pop() == "b"
    assert q.pop() is None


def test_double_push_is_an_error():
    q = JobQueue()
    q.push("a", seq=1)
    with pytest.raises(ValueError, match="already queued"):
        q.push("a", seq=2)


def test_drain_ids_previews_without_consuming():
    q = JobQueue()
    q.push("lo", priority=0, seq=1)
    q.push("hi", priority=2, seq=2)
    assert q.drain_ids() == ["hi", "lo"]
    assert len(q) == 2


# -- record state machine --------------------------------------------------


def test_legal_lifecycle_and_illegal_jumps():
    rec = JobRecord(id="j0001", kind="live-run", spec={})
    assert rec.state == "queued" and not rec.terminal
    rec.advance("running")
    rec.advance("done")
    assert rec.terminal
    with pytest.raises(ProtocolError, match="illegal transition"):
        rec.advance("running")
    fresh = JobRecord(id="j0002", kind="live-run", spec={})
    with pytest.raises(ProtocolError, match="illegal transition"):
        fresh.advance("done")           # queued cannot jump to done
    with pytest.raises(ProtocolError, match="unknown job state"):
        fresh.advance("paused")


# -- store -----------------------------------------------------------------


def test_save_load_round_trip_and_atomicity(tmp_path):
    store = JobStore(tmp_path / "state")
    rec = JobRecord(id="j0001", kind="sweep",
                    spec={"param": "n", "values": [4]}, priority=2, seq=7)
    store.save(rec)
    # No tmp residue: the write is tmp + rename.
    assert not list((tmp_path / "state").rglob("*.tmp"))
    back = store.load("j0001")
    assert back is not None and back.as_dict() == rec.as_dict()
    assert store.load("j9999") is None


def test_corrupt_record_reads_as_missing(tmp_path):
    store = JobStore(tmp_path / "state")
    store.save(JobRecord(id="j0001", kind="live-run", spec={}))
    store.record_path("j0001").write_text("{torn", "utf-8")
    assert store.load("j0001") is None


def test_next_id_continues_after_restart(tmp_path):
    store = JobStore(tmp_path / "state")
    assert store.next_id() == "j0001"
    store.save(JobRecord(id="j0003", kind="live-run", spec={}))
    assert JobStore(tmp_path / "state").next_id() == "j0004"


def test_event_stream_append_read_and_torn_tail(tmp_path):
    store = JobStore(tmp_path / "state")
    store.append_event("j0001", json.dumps({"seq": 0}))
    store.append_event("j0001", json.dumps({"seq": 1}))
    assert [e["seq"] for e in store.read_events("j0001")] == [0, 1]
    with store.events_path("j0001").open("a") as fh:
        fh.write('{"seq": 2')            # crash mid-append
    assert [e["seq"] for e in store.read_events("j0001")] == [0, 1]


def test_recover_requeues_queued_and_fails_running(tmp_path):
    store = JobStore(tmp_path / "state")
    queued = JobRecord(id="j0001", kind="live-run", spec={}, seq=1)
    running = JobRecord(id="j0002", kind="live-run", spec={}, seq=2)
    running.advance("running")
    done = JobRecord(id="j0003", kind="live-run", spec={}, seq=3,
                     state="done")
    for rec in (queued, running, done):
        store.save(rec)

    requeue, failed = JobStore(tmp_path / "state").recover()
    assert [r.id for r in requeue] == ["j0001"]
    assert [r.id for r in failed] == ["j0002"]
    assert failed[0].state == "failed"
    assert "server terminated" in failed[0].error
    # The verdict is durable, not just in-memory.
    again = JobStore(tmp_path / "state").load("j0002")
    assert again.state == "failed"
    # Terminal records are untouched.
    assert JobStore(tmp_path / "state").load("j0003").state == "done"


def test_recovered_event_does_not_glue_onto_a_torn_tail(tmp_path):
    # The server died mid-append while the job was running: the stream
    # ends in a torn line.  The restart's terminal event must be its own
    # line, readable by both the parser and the raw WebSocket replay.
    store = JobStore(tmp_path / "state")
    rec = JobRecord(id="j0001", kind="live-run", spec={}, seq=1)
    rec.advance("running")
    store.save(rec)
    store.append_event("j0001", json.dumps(
        state_event("j0001", 0, "queued"), sort_keys=True))
    with store.events_path("j0001").open("a") as fh:
        fh.write('{"ev":"job.state","job":"j0001","se')

    scheduler = Scheduler(JobStore(tmp_path / "state"))
    assert scheduler.recover() == (0, 1)
    events = scheduler.store.read_events("j0001")
    assert [(e["seq"], e["state"]) for e in events] == [
        (0, "queued"), (1, "failed")]
    lines = scheduler.store.read_event_lines("j0001")
    assert [json.loads(line) for line in lines] == events
    assert store.events_path("j0001").read_text().endswith("}\n")


def test_recover_fails_queued_job_of_a_kind_no_longer_served(tmp_path):
    # A state dir written by a release that still had the `bench` kind.
    store = JobStore(tmp_path / "state")
    store.save(JobRecord(id="j0001", kind="bench", spec={}, seq=1))
    store.save(JobRecord(id="j0002", kind="bench", spec={}, seq=2,
                         state="done"))

    requeue, failed = JobStore(tmp_path / "state").recover()
    assert requeue == []
    assert [(r.id, r.state, r.error) for r in failed] == [
        ("j0001", "failed", "unknown job kind 'bench'")]
    assert JobStore(tmp_path / "state").load("j0001").state == "failed"
    assert JobStore(tmp_path / "state").load("j0002").state == "done"
