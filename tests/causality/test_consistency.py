"""Unit tests for orphan detection and checkpoint-record verification."""

from __future__ import annotations

import pytest

from repro.causality import (
    CheckpointRecord,
    ConsistencyVerifier,
    cut_orphans,
    find_orphans,
)
from repro.des import TraceRecorder


def rec(pid, seq, sent=(), recv=()):
    return CheckpointRecord(pid=pid, seq=seq, taken_at=0.0, finalized_at=1.0,
                            new_sent_uids=frozenset(sent),
                            new_recv_uids=frozenset(recv))


class TestFindOrphans:
    def test_consistent_cut_has_no_orphans(self):
        records = {0: rec(0, 1, sent=[10]), 1: rec(1, 1, recv=[10])}
        assert find_orphans(records, {10: (0, 1)}) == []

    def test_orphan_detected(self):
        records = {0: rec(0, 1), 1: rec(1, 1, recv=[10])}
        orphans = find_orphans(records, {10: (0, 1)})
        assert len(orphans) == 1
        o = orphans[0]
        assert (o.uid, o.src, o.dst, o.seq) == (10, 0, 1, 1)

    def test_sent_but_not_received_is_fine(self):
        # In-transit messages are lost on rollback but not orphans.
        records = {0: rec(0, 1, sent=[10]), 1: rec(1, 1)}
        assert find_orphans(records, {10: (0, 1)}) == []

    def test_mixed_seq_rejected(self):
        records = {0: rec(0, 1), 1: rec(1, 2)}
        with pytest.raises(ValueError, match="multiple sequence"):
            find_orphans(records, {})

    def test_misattributed_receive_rejected(self):
        records = {0: rec(0, 1), 1: rec(1, 1, recv=[10])}
        with pytest.raises(ValueError, match="destined"):
            find_orphans(records, {10: (0, 2)})

    def test_multiple_orphans_all_reported(self):
        records = {
            0: rec(0, 1),
            1: rec(1, 1, recv=[10, 11]),
        }
        orphans = find_orphans(records, {10: (0, 1), 11: (0, 1)})
        assert sorted(o.uid for o in orphans) == [10, 11]

    def test_orphan_str_mentions_everything(self):
        records = {0: rec(0, 3), 1: rec(1, 3, recv=[7])}
        (o,) = find_orphans(records, {7: (0, 1)})
        s = str(o)
        assert "#7" in s and "P0->P1" in s and "S_3" in s


def build_trace():
    """P0 sends uid=1 to P1 at t=2, delivered t=4."""
    t = TraceRecorder()
    t.record(2.0, "msg.send", 0, uid=1, dst=1, kind="app", bytes=10)
    t.record(4.0, "msg.deliver", 1, uid=1, src=0, kind="app", bytes=10)
    return t


class TestCutOrphans:
    def test_send_and_receive_both_recorded(self):
        t = build_trace()
        assert cut_orphans({0: 5.0, 1: 5.0}, t) == []

    def test_orphan_when_only_receive_recorded(self):
        t = build_trace()
        orphans = cut_orphans({0: 1.0, 1: 5.0}, t)
        assert len(orphans) == 1 and orphans[0].uid == 1

    def test_neither_recorded(self):
        t = build_trace()
        assert cut_orphans({0: 1.0, 1: 1.0}, t) == []

    def test_send_recorded_receive_not(self):
        t = build_trace()
        assert cut_orphans({0: 5.0, 1: 3.0}, t) == []

    def test_non_app_messages_ignored(self):
        t = TraceRecorder()
        t.record(2.0, "msg.send", 0, uid=1, dst=1, kind="ctl")
        t.record(4.0, "msg.deliver", 1, uid=1, src=0, kind="ctl")
        assert cut_orphans({0: 1.0, 1: 5.0}, t) == []

    def test_cut_boundary_is_strict_for_receive(self):
        t = build_trace()
        # Receive exactly at the cut instant is NOT recorded (strict <).
        assert cut_orphans({0: 1.0, 1: 4.0}, t) == []


class TestConsistencyVerifier:
    def test_endpoints_extracted(self):
        v = ConsistencyVerifier(build_trace())
        assert v.endpoints == {1: (0, 1)}

    def test_verify_all_and_assert(self):
        v = ConsistencyVerifier(build_trace())
        good = {1: {0: rec(0, 1, sent=[1]), 1: rec(1, 1, recv=[1])}}
        assert v.verify_all(good) == {1: []}
        assert v.assert_consistent(good) == 1

    def test_assert_raises_on_orphan(self):
        v = ConsistencyVerifier(build_trace())
        bad = {1: {0: rec(0, 1), 1: rec(1, 1, recv=[1])}}
        with pytest.raises(AssertionError, match="orphan"):
            v.assert_consistent(bad)

    def test_cross_check_record_accepts_valid(self):
        v = ConsistencyVerifier(build_trace())
        v.cross_check_record(rec(0, 1, sent=[1]), cfe_time=3.0)
        v.cross_check_record(rec(1, 1, recv=[1]), cfe_time=5.0)

    def test_cross_check_record_rejects_future_events(self):
        v = ConsistencyVerifier(build_trace())
        with pytest.raises(AssertionError):
            v.cross_check_record(rec(0, 1, sent=[1]), cfe_time=1.0)
        with pytest.raises(AssertionError):
            v.cross_check_record(rec(1, 1, recv=[1]), cfe_time=3.0)


def duplicated_trace():
    """P0 sends uid=1 to P1 at t=1; delivered at t=2 and, as a chaos
    duplicate, again at t=2.5."""
    t = TraceRecorder()
    t.record(1.0, "msg.send", 0, uid=1, dst=1, kind="app", bytes=10)
    t.record(2.0, "msg.deliver", 1, uid=1, src=0, kind="app", bytes=10)
    t.record(2.5, "msg.deliver", 1, uid=1, src=0, kind="app", bytes=10,
             redelivered=True)
    return t


class TestDuplicateDelivery:
    def test_cross_check_counts_the_first_delivery(self):
        v = ConsistencyVerifier(duplicated_trace())
        v.cross_check_record(rec(1, 1, recv=[1]), cfe_time=2.2)
        with pytest.raises(AssertionError, match="at 2.0 after CFE 1.9"):
            v.cross_check_record(rec(1, 1, recv=[1]), cfe_time=1.9)

    def test_cut_orphans_reports_a_duplicated_message_once(self):
        orphans = cut_orphans({0: 0.5, 1: 3.0}, duplicated_trace())
        assert [(o.uid, o.src, o.dst) for o in orphans] == [(1, 0, 1)]
