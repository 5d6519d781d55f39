"""A kill around the durable write of ``C_k`` must not cost the replay its
increment.

``LiveHost.store_finalized`` journals the ``finalize`` record (a flushing
event) *before* ``write_finalized``.  The other order leaves a window in
which ``C_k`` is on disk — so the recovery line uses it — while the journal
never learns what it recorded: the replay then sees the sends of that
window as unrecorded and reports their receives as orphans of a later,
complete ``S_k``.

Deterministic: two real hosts on a running loop, a synchronous in-memory
wire pumped by hand, a storage stub that dies inside ``write_finalized``
(before or after the rename), then the supervisor's restart sequence.  No
sleeps, no signals.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live import FileStableStorage, Journal, LiveHost
from repro.live.conformance import replay
from repro.live.storage import durable_global_seq
from repro.live.transport import Endpoint
from repro.live.wire import recover_frame


class Killed(Exception):
    """Stands in for SIGKILL: nothing after the raise point runs."""


class WireEndpoint(Endpoint):
    """Frames go onto a shared list; the test delivers them.  Like the TCP
    transport's ``pre_flush`` hook, the journal is flushed before a frame
    leaves (journal-before-send)."""

    def __init__(self, pid: int, wire: list, journal: Journal) -> None:
        self.pid = pid
        self.wire = wire
        self.journal = journal

    def send(self, frame) -> None:
        self.journal.flush()
        self.wire.append(frame)


class DyingStorage(FileStableStorage):
    """Dies inside ``write_finalized(kill_csn)``: before the file exists,
    or right after the rename made it durable."""

    def __init__(self, run_dir, pid, kill_csn: int, after_rename: bool) -> None:
        super().__init__(run_dir, pid)
        self.kill_csn = kill_csn
        self.after_rename = after_rename

    def write_finalized(self, csn, payload) -> None:
        if csn == self.kill_csn:
            if self.after_rename:
                super().write_finalized(csn, payload)
            raise Killed(f"killed writing C{csn}")
        super().write_finalized(csn, payload)


def make_host(run_dir, pid, wire, storage=None, **kw) -> LiveHost:
    journal = Journal(run_dir, pid, kw.get("incarnation", 0))
    return LiveHost(pid, 2, WireEndpoint(pid, wire, journal),
                    storage or FileStableStorage(run_dir, pid), journal,
                    checkpoint_interval=3600.0, timeout=3600.0, **kw)


def pump(wire: list, hosts: dict[int, LiveHost]) -> None:
    """Deliver every queued frame (and whatever those deliveries send)."""
    while wire:
        frame = wire.pop(0)
        hosts[frame["dst"]].dispatch(frame)


def one_round(initiator: LiveHost, peer: LiveHost, wire, hosts) -> None:
    """A full round over app traffic alone: the initiator's message makes
    the peer tentative, the peer's reply completes the initiator's tentSet
    (it finalizes), and the initiator's next message — from a finalized
    sender — finalizes the peer, last."""
    assert initiator.driver.initiate()
    for sender, receiver in ((initiator, peer), (peer, initiator),
                             (initiator, peer)):
        sender.app_send(receiver.pid, 8)
        pump(wire, hosts)


@pytest.mark.parametrize("after_rename", [False, True],
                         ids=["killed-before-rename", "killed-after-rename"])
def test_kill_inside_write_finalized_keeps_replay_consistent(
        tmp_path, after_rename):
    async def scenario():
        wire: list = []
        p0 = make_host(tmp_path, 0, wire, DyingStorage(
            tmp_path, 0, kill_csn=1, after_rename=after_rename))
        p1 = make_host(tmp_path, 1, wire)
        hosts = {0: p0, 1: p1}
        p0.start()
        p1.start()
        # Window 1 of P0 holds a send that P1's C_1 records as received.
        p0.app_send(1, 8)
        pump(wire, hosts)
        with pytest.raises(Killed):
            one_round(p1, p0, wire, hosts)      # P0 finalizes last: dies
        assert sorted(p1.finalized) == [0, 1]
        # SIGKILL: P0's object is simply gone (buffered lines are lost,
        # flushed ones stay); the supervisor restarts it from the disk.
        p0._teardown()
        p0.journal._fh.close()
        wire.clear()
        seq = durable_global_seq(tmp_path, 2)
        assert seq == (1 if after_rename else 0)
        p1.dispatch(recover_frame(1, seq))
        p0 = hosts[0] = make_host(tmp_path, 0, wire, epoch=1, incarnation=1)
        p0.resume(seq)
        # Rounds after the restart: S_k is complete again, and P1's
        # receives of window 1 must find their sends recorded.
        one_round(p0, p1, wire, hosts)
        one_round(p1, p0, wire, hosts)
        for host in hosts.values():
            host.stop()
            host.journal.close()

    asyncio.run(scenario())
    report = replay(tmp_path, 2)
    assert report.consistent, report.render()
    assert len(report.rounds_completed) >= 2, report.render()
    if after_rename:
        # C_1 was durable, the recovery line used it: S_1 must be provable.
        assert 1 in report.complete_seqs
