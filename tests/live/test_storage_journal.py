"""File-backed stable storage and crash-safe journal tests."""

from __future__ import annotations

import json

import pytest

from repro.core.types import FinalizedCheckpoint, TentativeCheckpoint
from repro.live.journal import (MAX_BUFFERED_EVENTS, Journal, iter_journal,
                                read_journal, worker_events)
from repro.live.storage import FileStableStorage, durable_global_seq
from repro.storage import checkpoint_to_dict


def make_checkpoint(pid: int, csn: int, digest: int = 0) -> dict:
    ct = TentativeCheckpoint(pid=pid, csn=csn, taken_at=1.0, state_bytes=0,
                             flushed_at=1.5, digest=digest)
    fc = FinalizedCheckpoint(pid=pid, csn=csn, tentative=ct,
                             finalized_at=2.0, reason="test")
    return checkpoint_to_dict(fc)


class TestFileStableStorage:
    def test_finalized_round_trip(self, tmp_path):
        st = FileStableStorage(tmp_path, 1)
        st.write_finalized(2, make_checkpoint(1, 2, digest=42))
        fc = st.load_finalized(2)
        assert fc.pid == 1 and fc.csn == 2
        assert fc.tentative.digest == 42

    def test_finalize_subsumes_tentative_flush(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        st.write_tentative(1, {"csn": 1})
        assert (st.root / "tent-C1.json").exists()
        st.write_finalized(1, make_checkpoint(0, 1))
        assert not (st.root / "tent-C1.json").exists()
        assert st.finalized_csns() == [1]

    def test_no_torn_tmp_files_left_behind(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        st.write_finalized(1, make_checkpoint(0, 1))
        assert not list(st.root.glob("*.tmp"))

    def test_discard_above_drops_rolled_back_generations(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        for csn in range(4):
            st.write_finalized(csn, make_checkpoint(0, csn))
        st.write_tentative(4, {"csn": 4})
        dropped = st.discard_above(1)
        assert dropped == [2, 3]
        assert st.finalized_csns() == [0, 1]
        assert not list(st.root.glob("tent-*"))

    def test_gc_below_keeps_initial_checkpoint(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        for csn in range(5):
            st.write_finalized(csn, make_checkpoint(0, csn))
        assert st.gc_below(3) == [1, 2]
        assert st.finalized_csns() == [0, 3, 4]

    def test_durable_global_seq_is_common_prefix_max(self, tmp_path):
        for pid, top in ((0, 3), (1, 2), (2, 4)):
            st = FileStableStorage(tmp_path, pid)
            for csn in range(top + 1):
                st.write_finalized(csn, make_checkpoint(pid, csn))
        # Every pid has C_2 on disk; only some have C_3/C_4.
        assert durable_global_seq(tmp_path, 3) == 2

    def test_durable_global_seq_empty_run_is_zero(self, tmp_path):
        assert durable_global_seq(tmp_path, 2) == 0


class TestJournal:
    def test_log_and_read_round_trip(self, tmp_path):
        j = Journal(tmp_path, 3, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=11, dst=1, size=64)
        j.close()
        events = read_journal(j.path)
        assert [e["ev"] for e in events] == ["start", "send"]
        assert events[1]["uid"] == 11
        assert events[0]["idx"] == 0 and events[1]["idx"] == 1
        assert all(e["pid"] == 3 and e["inc"] == 0 for e in events)

    def test_torn_last_line_skipped(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=1, dst=1, size=0)
        j.close()
        # Simulate a SIGKILL mid-write: truncate inside the final line.
        raw = j.path.read_text(encoding="utf-8")
        j.path.write_text(raw[:-10], encoding="utf-8")
        events = read_journal(j.path)
        assert [e["ev"] for e in events] == ["start"]

    def test_worker_events_merges_incarnations_in_order(self, tmp_path):
        j0 = Journal(tmp_path, 1, 0)
        j0.log("start", epoch=0, resume=None)
        j0.log("send", uid=5, dst=0, size=0)
        j0.close()
        j1 = Journal(tmp_path, 1, 1)
        j1.log("start", epoch=1, resume=2)
        j1.close()
        per_pid = worker_events(tmp_path)
        assert list(per_pid) == [1]
        kinds = [(e["inc"], e["ev"]) for e in per_pid[1]]
        assert kinds == [(0, "start"), (0, "send"), (1, "start")]

    def test_lifecycle_events_are_flushed_immediately(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        # Readable before close — what makes SIGKILL journaling work.
        assert json.loads(j.path.read_text().strip())["ev"] == "start"
        j.close()

    def test_send_events_buffer_until_flush(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=1, dst=1, size=0)
        # High-rate events buffer; the transport's pre_flush hook (or a
        # round-boundary event, or close) makes them durable.
        assert len(j.path.read_text().splitlines()) == 1
        j.flush()
        assert len(j.path.read_text().splitlines()) == 2
        j.flush()  # idempotent: nothing buffered, nothing written
        assert len(j.path.read_text().splitlines()) == 2
        j.close()

    def test_round_boundary_event_flushes_buffered_sends(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("send", uid=1, dst=1, size=0)
        j.log("tentative", csn=1, digest=0)
        events = [json.loads(line)
                  for line in j.path.read_text().splitlines()]
        assert [e["ev"] for e in events] == ["send", "tentative"]
        j.close()

    def test_buffer_cap_forces_flush(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        for uid in range(MAX_BUFFERED_EVENTS):
            j.log("send", uid=uid, dst=1, size=0)
        assert len(j.path.read_text().splitlines()) == MAX_BUFFERED_EVENTS
        j.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=1, dst=1, size=0)
        j.close()
        lines = j.path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-5]  # tear a NON-final line: corruption
        j.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            read_journal(j.path)

    def test_iter_journal_skips_a_torn_last_line(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=1, dst=1, size=0)
        j.close()
        raw = j.path.read_text(encoding="utf-8")
        j.path.write_text(raw[:-10], encoding="utf-8")
        stream = iter_journal(j.path)
        assert next(stream)["ev"] == "start"
        assert list(stream) == []

    def test_iter_journal_raises_on_mid_file_corruption(self, tmp_path):
        j = Journal(tmp_path, 0, 0)
        j.log("start", epoch=0, resume=None)
        j.log("send", uid=1, dst=1, size=0)
        j.log("send", uid=2, dst=1, size=0)
        j.close()
        lines = j.path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:-5]  # tear a NON-final line: corruption
        j.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stream = iter_journal(j.path)
        assert next(stream)["ev"] == "start"
        with pytest.raises(ValueError, match=(
                r"corrupt journal line 2 in .*journal-P0-0\.jsonl: a "
                r"malformed line before the final one cannot be a torn "
                r"tail")):
            next(stream)

    def test_iter_journal_reads_like_a_whole_file_split(self, tmp_path):
        # Blank lines count toward line numbers, and a malformed line
        # followed only by a blank line is not the final line.
        path = tmp_path / "journal-P0-0.jsonl"
        path.write_text('{"ev": "start"}\n\n{"ev": "st\n\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt journal line 3"):
            read_journal(path)
        path.write_text('{"ev": "start"}\r\n\n{"ev": "stop"}\n{"ev": "st',
                        encoding="utf-8")
        assert [e["ev"] for e in iter_journal(path)] == ["start", "stop"]
