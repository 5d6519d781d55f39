"""Conformance replay unit tests on synthetic journals.

The end-to-end tests prove real runs come out consistent; these prove the
replay would actually *catch* violations — an orphan smuggled into a
global checkpoint, a selective log that excuses it, digest divergence
after a rollback, missing evidence.
"""

from __future__ import annotations

import asyncio
import tracemalloc
from pathlib import Path
from typing import Any

import pytest

from repro.causality.consistency import CheckpointRecord, ConsistencyVerifier
from repro.live import LiveRunConfig, run_live_async
from repro.live.conformance import ConformanceReport, replay, supervisor_events
from repro.live.journal import Journal, worker_events


def write_worker(tmp_path, pid, events, incarnation=0):
    j = Journal(tmp_path, pid, incarnation)
    j.log("start", epoch=0, resume=None)
    j.log("finalize", csn=0, reason="initial", exclude=None, new_sent=[],
          new_recv=[], digest=0)
    for ev, data in events:
        j.log(ev, **data)
    j.close()


def finalize(csn, *, sent=(), recv=(), digest=0):
    return ("finalize", dict(csn=csn, reason="test", exclude=None,
                             new_sent=sorted(sent), new_recv=sorted(recv),
                             digest=digest))


class TestReplayVerdicts:
    def test_clean_exchange_is_consistent(self, tmp_path):
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1, sent=[uid]),
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]),
        ])
        report = replay(tmp_path, 2)
        assert report.complete_seqs == [0, 1]
        assert report.consistent, report.render()
        assert report.sends == 1 and report.receives == 1

    def test_orphan_receive_detected(self, tmp_path):
        # P1's checkpoint records the receive but P0's does not record the
        # send (and nobody logged it): the classic orphan of Theorem 2.
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1),  # send NOT in the checkpoint's sent set
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]),
        ])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert len(report.orphans[1]) == 1
        assert report.orphans[1][0].uid == uid

    def test_exclusion_rule_avoids_the_orphan(self, tmp_path):
        # Same shape, but the receiver applied the paper's logSet - {M}
        # exclusion: the triggering receive is carried into the *next*
        # window instead of C_1, so S_1 has no orphan — and by S_2 the
        # sender's checkpoint covers the send, so S_2 is clean too.
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1),            # send crossed the C_1 cut...
            finalize(2, sent=[uid]),  # ...and is recorded by C_2
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1),            # receive excluded from C_1
            finalize(2, recv=[uid]),
        ])
        report = replay(tmp_path, 2)
        assert report.complete_seqs == [0, 1, 2]
        assert report.consistent, report.render()

    def test_send_moved_to_a_later_checkpoint_flags_rounds_in_between(
            self, tmp_path):
        # The receive is recorded by C_1; the send's uid is taken out of
        # the sender's C_1 increment and put into C_3's: S_1 and S_2 have
        # the orphan, S_3 (and S_4) no longer do.
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1), finalize(2), finalize(3, sent=[uid]), finalize(4),
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]), finalize(2), finalize(3), finalize(4),
        ])
        report = replay(tmp_path, 2)
        assert report.complete_seqs == [0, 1, 2, 3, 4]
        assert [s for s, o in report.orphans.items() if o] == [1, 2]
        assert all(o.uid == uid for s in (1, 2) for o in report.orphans[s])
        assert not report.consistent

    def test_unknown_uid_is_a_problem_not_a_crash(self, tmp_path):
        # A recv of a uid with no send record anywhere (journal loss)
        # must surface as a problem, never pass silently.
        write_worker(tmp_path, 0, [finalize(1)])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=999, src=0, size=8)),
            finalize(1, recv=[999]),
        ])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert any("unknown uids" in p for p in report.problems)

    def test_rollback_discards_abandoned_generations(self, tmp_path):
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1, sent=[uid]),
            finalize(2),
            ("rollback", dict(seq=1, epoch=1, digest=0)),
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]),
        ])
        report = replay(tmp_path, 2)
        # P0's C_2 belonged to the discarded execution: only S_0/S_1 are
        # complete, and the run is still consistent.
        assert report.complete_seqs == [0, 1]
        assert report.rollbacks == 1
        assert report.consistent, report.render()

    def test_rollback_digest_mismatch_flagged(self, tmp_path):
        write_worker(tmp_path, 0, [
            finalize(1, digest=42),
            ("rollback", dict(seq=1, epoch=1, digest=41)),  # diverged!
        ])
        write_worker(tmp_path, 1, [finalize(1)])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert any("digest" in p for p in report.problems)

    def test_journaled_anomaly_fails_the_run(self, tmp_path):
        write_worker(tmp_path, 0, [
            ("anomaly", dict(description="impossible piggyback")),
        ])
        write_worker(tmp_path, 1, [])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert any("anomaly" in p for p in report.problems)


    def test_a_round_left_open_at_the_cut_is_clean(self, tmp_path):
        # A run stopped mid-round: P0 took CT_2 and finalized nothing
        # more; every round below the highest finalized one is complete.
        write_worker(tmp_path, 0, [
            ("tentative", dict(csn=1, digest=1)), finalize(1),
            ("tentative", dict(csn=2, digest=2)),
        ])
        write_worker(tmp_path, 1, [finalize(1), finalize(2)])
        report = replay(tmp_path, 2)
        assert report.consistent, report.render()

    def test_journal_checks_report_a_skipped_round(self, tmp_path):
        write_worker(tmp_path, 0, [finalize(1), finalize(3)])
        write_worker(tmp_path, 1, [finalize(1), finalize(2), finalize(3)])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert report.problems == [
            "P0 took [1, 3] but csn=3 (expected dense 1..3)",
            "P0 finalized [0, 1, 3], expected [0, 1, 2, 3] (csn=3, normal)",
            "round 3 is finalized but P0 never finalized rounds [2]"]

    def test_missing_journal_is_a_problem(self, tmp_path):
        write_worker(tmp_path, 0, [])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert any("missing journals" in p for p in report.problems)

    def test_empty_run_dir_is_a_problem(self, tmp_path):
        report = replay(tmp_path, 2)
        assert not report.consistent

    def test_older_journals_with_logged_uids_replay_the_same(self, tmp_path):
        # Journals written before the finalize record dropped its logged
        # uid list still replay, to the very same verdict.
        def run(root, **extra):
            uid = 100
            write_worker(root, 0, [
                ("send", dict(uid=uid, dst=1, size=8)),
                ("finalize", dict(finalize(1)[1], **extra)),
                ("finalize", dict(finalize(2, sent=[uid])[1], **extra)),
            ])
            write_worker(root, 1, [
                ("recv", dict(uid=uid, src=0, size=8)),
                ("finalize", dict(finalize(1, recv=[uid])[1], **extra)),
                ("finalize", dict(finalize(2)[1], **extra)),
            ])
            out = replay(root, 2).as_dict()
            del out["run_dir"], out["round_latency"]
            return out

        new = run(tmp_path / "new")
        old = run(tmp_path / "old", logged=[100])
        assert old == new
        assert not new["consistent"] and new["orphan_count"] == 1

    def test_as_dict_is_json_shaped(self, tmp_path):
        import json

        write_worker(tmp_path, 0, [])
        write_worker(tmp_path, 1, [])
        report = replay(tmp_path, 2)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["consistent"] is True
        assert payload["complete_seqs"] == [0]


class TestRollbackTargets:
    """A rollback must target a checkpoint the worker finalized and still
    holds; numbering resumes above the target."""

    def test_rollback_to_a_never_finalized_checkpoint_is_a_problem(
            self, tmp_path):
        write_worker(tmp_path, 0, [
            finalize(1),
            ("rollback", dict(seq=2, epoch=1, digest=0)),
        ])
        write_worker(tmp_path, 1, [finalize(1)])
        report = replay(tmp_path, 2)
        assert not report.consistent
        assert report.problems == [
            "P0 rolled back to C_2, which it never finalized"]

    def test_rollback_trims_later_finalizations(self, tmp_path):
        # Rolling back to 1 discards C_2, so a second rollback to the
        # dropped C_2 targets a checkpoint the worker no longer holds.
        write_worker(tmp_path, 0, [
            finalize(1), finalize(2),
            ("rollback", dict(seq=1, epoch=1, digest=0)),
            ("rollback", dict(seq=2, epoch=2, digest=0)),
        ])
        write_worker(tmp_path, 1, [finalize(1)])
        assert replay(tmp_path, 2).problems == [
            "P0 rolled back to C_2, which it never finalized"]

    def test_rollback_to_finalized_accepted(self, tmp_path):
        write_worker(tmp_path, 0, [
            finalize(1), finalize(2),
            ("rollback", dict(seq=1, epoch=1, digest=0)),
        ])
        write_worker(tmp_path, 1, [
            finalize(1), ("rollback", dict(seq=1, epoch=1, digest=0))])
        report = replay(tmp_path, 2)
        assert report.consistent, report.render()
        assert report.complete_seqs == [0, 1] and report.rollbacks == 2

    def test_rollback_resets_open_tentative(self, tmp_path):
        # The rollback abandons the open CT_2; numbering restarts from the
        # target, so CT_2 is taken and finalized again.
        write_worker(tmp_path, 0, [
            ("tentative", dict(csn=1, digest=0)), finalize(1),
            ("tentative", dict(csn=2, digest=0)),
            ("rollback", dict(seq=1, epoch=1, digest=0)),
            ("tentative", dict(csn=2, digest=0)), finalize(2),
        ])
        write_worker(tmp_path, 1, [finalize(1), finalize(2)])
        report = replay(tmp_path, 2)
        assert report.consistent, report.render()
        assert report.complete_seqs == [0, 1, 2]

    def test_take_after_rollback_skipping_violates(self, tmp_path):
        write_worker(tmp_path, 0, [
            finalize(1),
            ("rollback", dict(seq=1, epoch=1, digest=0)),
            ("tentative", dict(csn=4, digest=0)),
        ])
        write_worker(tmp_path, 1, [finalize(1)])
        assert replay(tmp_path, 2).problems == [
            "P0 took [1, 4] but csn=4 (expected dense 1..4)",
            "P0 finalized [0, 1], expected [0, 1, 2, 3] (csn=4, tentative)"]


class TestSupervisorEvents:
    def test_missing_supervisor_journal_is_empty(self, tmp_path):
        assert supervisor_events(tmp_path) == []


# --------------------------------------------------------------------------
# the streaming replay against the materialising one it replaced
# --------------------------------------------------------------------------

# The reference oracle: the replay as it was when it read every journal
# into memory first (``worker_events``), kept verbatim.


def _surviving_finalizes(events: list[dict[str, Any]],
                         problems: list[str]) -> dict[int, dict[str, Any]]:
    """One worker's finalize records after applying its rollbacks.

    A ``rollback`` to ``seq`` discards finalized generations above ``seq``
    (they belong to the abandoned execution); a later re-finalization of
    the same csn simply overwrites.  Also cross-checks the restart-from-
    disk digest: the digest journaled at rollback time must equal the one
    the surviving checkpoint's replay claims.
    """
    table: dict[int, dict[str, Any]] = {}
    tent_wall: dict[int, float] = {}
    for ev in events:
        kind = ev["ev"]
        if kind == "tentative":
            tent_wall[ev["csn"]] = ev["wall"]
        elif kind == "finalize":
            record = dict(ev)
            record["taken_wall"] = tent_wall.get(ev["csn"], ev["wall"])
            table[ev["csn"]] = record
        elif kind == "rollback":
            seq = ev["seq"]
            for csn in [c for c in sorted(table) if c > seq]:
                del table[csn]
            for csn in [c for c in sorted(tent_wall) if c > seq]:
                del tent_wall[csn]
            want = table.get(seq)
            if want is not None and want.get("digest") != ev.get("digest"):
                problems.append(
                    f"P{ev['pid']} rollback to {seq} restored digest "
                    f"{ev.get('digest')} but checkpoint replay claims "
                    f"{want.get('digest')}")
        elif kind == "anomaly":
            problems.append(
                f"P{ev['pid']} protocol anomaly: {ev.get('description')}")
    return table


def reference_replay(run_dir: str | Path, n: int | None = None
                     ) -> ConformanceReport:
    """The materialising replay: every journal record in memory first."""
    per_pid = worker_events(run_dir)
    if n is None:
        n = (max(per_pid) + 1) if per_pid else 0
    report = ConformanceReport(run_dir=str(run_dir), n=n)
    if not per_pid:
        report.problems.append("no worker journals found")
        return report
    missing = [pid for pid in range(n) if pid not in per_pid]
    if missing:
        report.problems.append(f"missing journals for pids {missing}")
        return report

    # 1. endpoint map from *all* sends (discarded executions included).
    endpoints: dict[int, tuple[int, int]] = {}
    for pid in range(n):
        for ev in per_pid[pid]:
            if ev["ev"] == "send":
                endpoints[ev["uid"]] = (pid, ev["dst"])
                report.sends += 1
            elif ev["ev"] == "recv":
                report.receives += 1
            elif ev["ev"] == "rollback":
                report.rollbacks += 1

    # 2. surviving finalize records per worker.
    surviving = {pid: _surviving_finalizes(per_pid[pid], report.problems)
                 for pid in range(n)}

    # 3. complete S_k = generations every worker finalized.
    common: set[int] | None = None
    for pid in range(n):
        seqs = set(surviving[pid])
        common = seqs if common is None else (common & seqs)
    report.complete_seqs = sorted(common or ())

    # 4. one chained record per surviving finalize, then every complete
    #    S_k in a single pass over the increments.
    chains: dict[int, dict[int, CheckpointRecord]] = {}
    for pid in range(n):
        prev: CheckpointRecord | None = None
        chains[pid] = {}
        for csn in sorted(surviving[pid]):
            rec = surviving[pid][csn]
            prev = chains[pid][csn] = CheckpointRecord(
                pid=pid, seq=csn, taken_at=rec["taken_wall"],
                finalized_at=rec["wall"],
                new_sent_uids=frozenset(rec["new_sent"]),
                new_recv_uids=frozenset(rec["new_recv"]), prev=prev)
    by_seq = {seq: {pid: chains[pid][seq] for pid in range(n)}
              for seq in report.complete_seqs}
    try:
        report.orphans = ConsistencyVerifier(
            endpoints=endpoints).verify_all(by_seq)
    except KeyError as exc:
        # A receive with no send record anywhere (journal loss): nothing
        # can be classified, so no S_k gets a verdict.
        report.problems.append(
            f"a checkpoint records receives of unknown uids "
            f"(first: #{exc.args[0]})")
    for seq, records in by_seq.items():
        if seq > 0:
            starts = [rec.taken_at for rec in records.values()]
            ends = [rec.finalized_at for rec in records.values()]
            report.round_latency[seq] = max(ends) - min(starts)
    return report


def assert_same_replay(run_dir, n=None, journal_findings=()):
    """The streaming replay reports exactly what the reference does, plus
    ``journal_findings``: what the property library's journal checks find,
    which the reference predates."""
    got = replay(run_dir, n).as_dict()
    want = reference_replay(run_dir, n).as_dict()
    want["problems"] = want["problems"] + list(journal_findings)
    want["consistent"] = want["consistent"] and not journal_findings
    assert got == want
    return got


def live_cfg(run_dir, **overrides) -> LiveRunConfig:
    base = dict(n=3, transport="local", duration=1.2,
                checkpoint_interval=0.25, timeout=0.12, rate=60.0,
                seed=11, run_dir=str(run_dir))
    base.update(overrides)
    return LiveRunConfig(**base)


class TestReplayMatchesTheMaterialisingReplay:
    def test_clean_tcp_run(self, tmp_path):
        cfg = live_cfg(tmp_path / "run", transport="tcp", duration=1.5,
                       checkpoint_interval=0.4, timeout=0.2, rate=200.0)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()
        got = assert_same_replay(cfg.run_dir, cfg.n)
        assert got["sends"] > 0 and got["rounds_completed"] >= 1

    def test_crash_recover_run(self, tmp_path):
        cfg = live_cfg(tmp_path / "run", duration=2.2, crash_at=1.0)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()
        got = assert_same_replay(cfg.run_dir, cfg.n)
        assert got["rollbacks"] >= cfg.n

    @pytest.mark.parametrize("kind", ["duplicate", "drop"])
    def test_live_chaos_cell(self, tmp_path, kind):
        from repro.chaos import run_live_cell

        cell = run_live_cell(kind, seed=2, transport="local", duration=1.6,
                             run_dir=tmp_path)
        assert cell.ok, cell.as_dict()
        assert cell.injected.get(kind, 0) > 0
        assert_same_replay(tmp_path)

    def test_torn_tail(self, tmp_path):
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1, sent=[uid]),
            ("send", dict(uid=uid + 1, dst=1, size=8)),
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]),
        ])
        path = tmp_path / "journal-P0-0.jsonl"
        path.write_text(path.read_text(encoding="utf-8")[:-10],
                        encoding="utf-8")
        got = assert_same_replay(tmp_path, 2)
        assert got["sends"] == 1 and got["consistent"]

    def test_mid_file_corruption_raises_the_same_error(self, tmp_path):
        write_worker(tmp_path, 0, [finalize(1)])
        write_worker(tmp_path, 1, [finalize(1)])
        path = tmp_path / "journal-P1-0.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:-5]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as ref:
            reference_replay(tmp_path, 2)
        with pytest.raises(ValueError) as got:
            replay(tmp_path, 2)
        assert str(got.value) == str(ref.value)
        assert "corrupt journal line 2" in str(got.value)

    def test_orphan(self, tmp_path):
        uid = 100
        write_worker(tmp_path, 0, [
            ("send", dict(uid=uid, dst=1, size=8)),
            finalize(1), finalize(2), finalize(3, sent=[uid]),
        ])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=uid, src=0, size=8)),
            finalize(1, recv=[uid]), finalize(2), finalize(3),
        ])
        got = assert_same_replay(tmp_path, 2)
        assert got["orphan_count"] == 2

    def test_digest_mismatch_and_rollbacks(self, tmp_path):
        write_worker(tmp_path, 0, [
            ("tentative", dict(csn=1, digest=42)),
            finalize(1, digest=42),
            ("tentative", dict(csn=2, digest=7)),
            finalize(2, digest=7),
            ("rollback", dict(seq=1, epoch=1, digest=41)),
            finalize(2, digest=8),
            ("rollback", dict(seq=2, epoch=2, digest=9)),
        ])
        write_worker(tmp_path, 1, [finalize(1), finalize(2),
                                   ("rollback", dict(seq=0, epoch=1,
                                                     digest=1))])
        # P1 alone rolled back below the rounds P0 keeps: Theorem 1's
        # round prefix no longer holds of the surviving checkpoints.
        got = assert_same_replay(tmp_path, 2, journal_findings=[
            "round 2 is finalized but P1 never finalized rounds [1]"])
        assert got["rollbacks"] == 3 and len(got["problems"]) == 4

    def test_anomaly(self, tmp_path):
        write_worker(tmp_path, 0, [
            ("anomaly", dict(description="impossible piggyback")),
        ])
        write_worker(tmp_path, 1, [
            ("anomaly", dict(description="second")),
        ])
        got = assert_same_replay(tmp_path, 2)
        assert [p.split(":")[0] for p in got["problems"]] == [
            "P0 protocol anomaly", "P1 protocol anomaly"]

    def test_unknown_uid(self, tmp_path):
        write_worker(tmp_path, 0, [finalize(1)])
        write_worker(tmp_path, 1, [
            ("recv", dict(uid=999, src=0, size=8)),
            finalize(1, recv=[999]),
        ])
        got = assert_same_replay(tmp_path, 2)
        assert "unknown uids" in got["problems"][-1]

    @pytest.mark.parametrize("n", [None, 1, 2, 3])
    def test_missing_pid_and_extra_journals(self, tmp_path, n):
        write_worker(tmp_path, 0, [("send", dict(uid=5, dst=2, size=8)),
                                   finalize(1, sent=[5])])
        write_worker(tmp_path, 2, [("recv", dict(uid=5, src=0, size=8)),
                                   finalize(1, recv=[5])])
        write_worker(tmp_path, 2, [finalize(2)], incarnation=1)
        assert_same_replay(tmp_path, n)

    def test_empty_run_dir(self, tmp_path):
        assert_same_replay(tmp_path, 2)


# --------------------------------------------------------------------------
# the storage shape: what the replay keeps per journaled event
# --------------------------------------------------------------------------

#: Per worker: application sends and receives, and the events between two
#: finalizes (each finalize carries its window's uids as increments).
SHAPE_EVENTS = 50_000
SHAPE_WINDOW = 2_500
#: Upper bound on the replay's traced allocation peak per send / recv.
SHAPE_BYTES_PER_EVENT = 300


def write_shape_journals(run_dir: Path) -> int:
    """Two workers exchanging ``SHAPE_EVENTS`` messages each way; returns
    the number of send and recv records journaled."""
    uid = {0: 1 << 40, 1: 2 << 40}
    for pid in (0, 1):
        peer = 1 - pid
        j = Journal(run_dir, pid, 0)
        j.log("start", epoch=0, resume=None)
        j.log("finalize", csn=0, reason="initial", exclude=None,
              new_sent=[], new_recv=[], digest=0)
        sent: list[int] = []
        recv: list[int] = []
        csn = 0
        for i in range(SHAPE_EVENTS):
            j.log("send", uid=uid[pid] + i, dst=peer, size=256)
            sent.append(uid[pid] + i)
            j.log("recv", uid=uid[peer] + i, src=peer, size=256)
            recv.append(uid[peer] + i)
            if len(sent) == SHAPE_WINDOW:
                csn += 1
                j.log("tentative", csn=csn, digest=csn)
                j.log("finalize", csn=csn, reason="timer", exclude=None,
                      new_sent=sent, new_recv=recv, digest=csn)
                sent, recv = [], []
        j.close()
    return 4 * SHAPE_EVENTS


def test_replay_keeps_endpoints_and_increments_not_records(tmp_path):
    events = write_shape_journals(tmp_path)
    tracemalloc.start()
    try:
        report = replay(tmp_path, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.consistent, report.render()
    assert report.sends == report.receives == 2 * SHAPE_EVENTS
    assert report.complete_seqs == list(range(SHAPE_EVENTS // SHAPE_WINDOW + 1))
    assert peak / events <= SHAPE_BYTES_PER_EVENT, (
        f"{peak / events:.0f} B per journaled event")
