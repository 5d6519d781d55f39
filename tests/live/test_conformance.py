"""Conformance replay unit tests on synthetic journals.

The end-to-end tests prove real runs come out consistent; these prove the
replay would actually *catch* violations — an orphan smuggled into a
global checkpoint, a selective log that excuses it, digest divergence
after a rollback, missing evidence.
"""

from __future__ import annotations

from repro.live.conformance import replay, supervisor_events
from repro.live.journal import Journal


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


class TestSupervisorEvents:
    def test_missing_supervisor_journal_is_empty(self, tmp_path):
        assert supervisor_events(tmp_path) == []
