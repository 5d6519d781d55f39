"""Tests for checkpoint and wire serialization round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ProtocolDriver
from repro.core.types import (
    ControlMessage,
    ControlType,
    FinalizedCheckpoint,
    LogEntry,
    Piggyback,
    Status,
    TentativeCheckpoint,
)
from repro.storage import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    control_message_from_dict,
    control_message_to_dict,
    dumps_checkpoint,
    export_run,
    import_run,
    loads_checkpoint,
    log_entry_from_dict,
    log_entry_to_dict,
    piggyback_from_dict,
    piggyback_to_dict,
)
from repro.storage.serialize import WIRE_VERSION

from ..conftest import build_optimistic_run, run_to_quiescence
from ..core.test_driver import N, T, SimShapedPort, pb


def sample_checkpoint() -> FinalizedCheckpoint:
    ct = TentativeCheckpoint(pid=2, csn=3, taken_at=10.5, state_bytes=4096,
                             flushed_at=12.0, digest=987654321)
    return FinalizedCheckpoint(
        pid=2, csn=3, tentative=ct, finalized_at=15.25,
        log_entries=[
            LogEntry(uid=11, nbytes=100, direction="sent", time=11.0),
            LogEntry(uid=12, nbytes=200, direction="recv", time=12.5),
        ],
        new_sent_uids=frozenset({11, 7}),
        new_recv_uids=frozenset({12}),
        reason="piggyback.allset")


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        fc = sample_checkpoint()
        back = checkpoint_from_dict(checkpoint_to_dict(fc))
        assert back.pid == fc.pid and back.csn == fc.csn
        assert back.finalized_at == fc.finalized_at
        assert back.reason == fc.reason
        assert back.tentative.taken_at == fc.tentative.taken_at
        assert back.tentative.state_bytes == fc.tentative.state_bytes
        assert back.tentative.flushed_at == fc.tentative.flushed_at
        assert back.tentative.digest == fc.tentative.digest
        assert back.new_sent_uids == fc.new_sent_uids
        assert back.new_recv_uids == fc.new_recv_uids
        assert back.logged_uids == fc.logged_uids
        assert back.log_bytes == fc.log_bytes
        assert back.replay_digest() == fc.replay_digest()

    def test_json_round_trip(self):
        fc = sample_checkpoint()
        payload = dumps_checkpoint(fc)
        json.loads(payload)  # valid JSON
        back = loads_checkpoint(payload)
        assert back.replay_digest() == fc.replay_digest()

    def test_log_order_preserved(self):
        fc = sample_checkpoint()
        back = loads_checkpoint(dumps_checkpoint(fc))
        assert [e.uid for e in back.log_entries] == [11, 12]

    def test_version_checked(self):
        data = checkpoint_to_dict(sample_checkpoint())
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            checkpoint_from_dict(data)


#: ``dumps_checkpoint`` of :func:`finalized_with_exclusion`'s checkpoint —
#: the bytes of a live ``C_k`` file; they must not move.
GOLDEN_CHECKPOINT = (
    '{"csn": 1, "finalized_at": 12.75, "format_version": 1, "log": '
    '[{"bytes": 300, "direction": "sent", "time": 10.25, "uid": 101}, '
    '{"bytes": 200, "direction": "recv", "time": 11.5, "uid": 8}], '
    '"new_recv_uids": [7, 8], "new_sent_uids": [101], "pid": 1, '
    '"reason": "piggyback.peer_normal", "tentative": {"digest": 2654435776, '
    '"flushed_at": null, "full": true, "state_bytes": 1000, '
    '"taken_at": 10.0}}')


def finalized_with_exclusion():
    """A round finalized by the driver: a send and a receive logged, and
    the trigger receive ``M`` (uid 9) logged, then excluded."""
    port = SimShapedPort()
    d = ProtocolDriver(1, 3, port)
    d.app_received(pb(0, N), uid=7, nbytes=64)       # before CT: not logged
    port.now = 10.0
    d.initiate()
    port.now = 10.25
    d.app_sent(uid=101, nbytes=300)
    port.now = 11.5
    d.app_received(pb(1, T, {0}), uid=8, nbytes=200)
    port.now = 12.75
    d.app_received(pb(1, N), uid=9, nbytes=150)       # 3(b): M = 9
    (fc, exclude), = port.finalized
    assert exclude == 9
    return fc


class TestGoldenBytes:
    def test_driver_checkpoint_bytes_are_pinned(self):
        fc = finalized_with_exclusion()
        assert dumps_checkpoint(fc) == GOLDEN_CHECKPOINT
        assert checkpoint_to_dict(fc)["log"] == [
            log_entry_to_dict(e) for e in fc.log_entries]
        back = loads_checkpoint(GOLDEN_CHECKPOINT)
        assert back.log_entries == fc.log_entries
        assert dumps_checkpoint(back) == GOLDEN_CHECKPOINT

    def test_entry_list_spelling_serializes_like_the_driver(self):
        fc = finalized_with_exclusion()
        spelled = FinalizedCheckpoint(
            pid=fc.pid, csn=fc.csn, tentative=fc.tentative,
            finalized_at=fc.finalized_at,
            log_entries=[
                LogEntry(uid=101, nbytes=300, direction="sent", time=10.25),
                LogEntry(uid=8, nbytes=200, direction="recv", time=11.5)],
            new_sent_uids=fc.new_sent_uids, new_recv_uids=fc.new_recv_uids,
            reason=fc.reason)
        assert dumps_checkpoint(spelled) == GOLDEN_CHECKPOINT


uids = st.integers(min_value=0, max_value=2**62)
statuses = st.sampled_from(list(Status))
ctypes = st.sampled_from(list(ControlType))
piggybacks = st.builds(
    Piggyback,
    csn=st.integers(min_value=0, max_value=10_000),
    stat=statuses,
    tent_set=st.frozensets(st.integers(min_value=0, max_value=64),
                           max_size=8))
log_entries = st.builds(
    LogEntry,
    uid=uids,
    nbytes=st.integers(min_value=0, max_value=10**9),
    direction=st.sampled_from(["sent", "recv"]),
    time=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))


@st.composite
def checkpoints(draw):
    """Arbitrary finalized checkpoints, including the exclusion shapes.

    ``logged_uids`` is derived from the drawn log entries, so the strategy
    naturally covers both finalize outcomes: everything logged kept
    (``exclude_uid=None`` in the Finalize effect) and an excluded message
    absent from the log (empty/shrunk log with the uid only in
    ``new_recv_uids``).
    """
    entries = draw(st.lists(log_entries, max_size=5))
    sent = draw(st.frozensets(uids, max_size=5))
    recv = draw(st.frozensets(uids, max_size=5))
    ct = TentativeCheckpoint(
        pid=draw(st.integers(min_value=0, max_value=63)),
        csn=draw(st.integers(min_value=0, max_value=1000)),
        taken_at=draw(st.floats(min_value=0, max_value=1e6,
                                allow_nan=False)),
        state_bytes=draw(st.integers(min_value=0, max_value=10**9)),
        flushed_at=draw(st.floats(min_value=0, max_value=1e6,
                                  allow_nan=False)),
        digest=draw(st.integers(min_value=0, max_value=2**61)))
    return FinalizedCheckpoint(
        pid=ct.pid, csn=ct.csn, tentative=ct,
        finalized_at=draw(st.floats(min_value=0, max_value=1e6,
                                    allow_nan=False)),
        log_entries=entries, new_sent_uids=sent, new_recv_uids=recv,
        reason=draw(st.sampled_from(
            ["piggyback.allset", "piggyback.logset-exclude",
             "control.ck_end", "timer.converged"])))


class TestWireEncodings:
    """The cross-process payload encodings the live runtime rides on."""

    @given(pb=piggybacks)
    def test_piggyback_round_trip(self, pb):
        data = piggyback_to_dict(pb)
        json.loads(json.dumps(data))  # JSON-safe
        assert piggyback_from_dict(data) == pb

    def test_piggyback_tent_set_encoded_sorted(self):
        pb = Piggyback(csn=4, stat=Status.TENTATIVE,
                       tent_set=frozenset({3, 0, 2}))
        data = piggyback_to_dict(pb)
        assert data["tent_set"] == [0, 2, 3]
        assert piggyback_from_dict(data).tent_set == pb.tent_set

    @given(ctype=ctypes, csn=st.integers(min_value=0, max_value=10_000))
    def test_control_message_round_trip(self, ctype, csn):
        cm = ControlMessage(ctype=ctype, csn=csn)
        assert control_message_from_dict(control_message_to_dict(cm)) == cm

    @given(entry=log_entries)
    def test_log_entry_round_trip(self, entry):
        assert log_entry_from_dict(log_entry_to_dict(entry)) == entry

    def test_wire_payloads_are_version_stamped(self):
        pb = Piggyback(csn=0, stat=Status.NORMAL, tent_set=frozenset())
        cm = ControlMessage(ctype=ControlType.CK_BGN, csn=1)
        assert piggyback_to_dict(pb)["v"] == WIRE_VERSION
        assert control_message_to_dict(cm)["v"] == WIRE_VERSION

    @pytest.mark.parametrize("bad_version", [None, 0, 99])
    def test_piggyback_rejects_unknown_version(self, bad_version):
        data = piggyback_to_dict(
            Piggyback(csn=0, stat=Status.NORMAL, tent_set=frozenset()))
        data["v"] = bad_version
        with pytest.raises(ValueError, match="wire version"):
            piggyback_from_dict(data)

    @pytest.mark.parametrize("bad_version", [None, 0, 99])
    def test_control_message_rejects_unknown_version(self, bad_version):
        data = control_message_to_dict(
            ControlMessage(ctype=ControlType.CK_REQ, csn=2))
        data["v"] = bad_version
        with pytest.raises(ValueError, match="wire version"):
            control_message_from_dict(data)

    @given(fc=checkpoints())
    def test_checkpoint_property_round_trip(self, fc):
        back = loads_checkpoint(dumps_checkpoint(fc))
        assert back.new_sent_uids == fc.new_sent_uids
        assert back.new_recv_uids == fc.new_recv_uids
        assert back.logged_uids == fc.logged_uids
        assert [e.uid for e in back.log_entries] == [
            e.uid for e in fc.log_entries]
        assert back.replay_digest() == fc.replay_digest()


class TestRunExport:
    def test_export_import_full_run(self):
        sim, net, st, rt = build_optimistic_run(n=3, seed=2, horizon=100.0,
                                                rate=2.0, interval=30.0)
        run_to_quiescence(sim, rt)
        blob = export_run(rt)
        # JSON-serializable end to end.
        payload = json.dumps(blob)
        restored = import_run(json.loads(payload))
        assert set(restored) == set(rt.hosts)
        for pid, host in rt.hosts.items():
            assert set(restored[pid]) == set(host.finalized)
            for csn, fc in host.finalized.items():
                assert (restored[pid][csn].replay_digest()
                        == fc.replay_digest())
        assert blob["complete_global_checkpoints"] == rt.finalized_seqs()

    def test_import_rejects_bad_version(self):
        with pytest.raises(ValueError):
            import_run({"format_version": 0, "checkpoints": {}})

    def test_gc_view_exports_only_retained_generations(self):
        sim, net, st, rt = build_optimistic_run(n=3, seed=2, horizon=300.0,
                                                rate=2.0, interval=30.0)
        run_to_quiescence(sim, rt)
        full_view = export_run(rt)
        gc_view = export_run(rt, gc_view=True)
        assert gc_view["gc_view"] is True
        assert len(gc_view["checkpoints"]) < len(full_view["checkpoints"])
        # The GC view is exactly the held generations.
        for pid, host in rt.hosts.items():
            held = {f"P{pid}/C{csn}" for csn in host._held_gens}
            exported = {k for k in gc_view["checkpoints"]
                        if k.startswith(f"P{pid}/")}
            assert exported == held
