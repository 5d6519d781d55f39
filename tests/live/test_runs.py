"""End-to-end live runs: real timers, real concurrency, verified.

Short wall-clock runs (tight intervals) so the whole module stays a few
seconds; the CI ``live-smoke`` job runs the full acceptance configuration.
"""

from __future__ import annotations

import asyncio

from repro.live import (
    LiveRunConfig,
    run_live_async,
    supervisor_events,
    worker_events,
)


def fast_cfg(tmp_path, **overrides) -> LiveRunConfig:
    base = dict(n=3, transport="local", duration=1.2,
                checkpoint_interval=0.25, timeout=0.12, rate=60.0,
                seed=7, run_dir=str(tmp_path / "run"))
    base.update(overrides)
    return LiveRunConfig(**base)


class TestLocalRun:
    def test_clean_run_is_consistent_with_rounds(self, tmp_path):
        report = asyncio.run(run_live_async(fast_cfg(tmp_path)))
        assert report.ok, report.render()
        assert report.conformance.consistent
        assert len(report.conformance.rounds_completed) >= 1
        assert report.conformance.receives > 0
        assert report.dropped_frames == 0
        assert report.msgs_per_sec > 0

    def test_every_frame_crosses_the_wire_codec(self, tmp_path, monkeypatch):
        # In-process workers attach to the same broker as TCP workers:
        # each frame is encoded at its sender and decoded at its receiver.
        from repro.live import transport

        calls = {"encode": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(transport, "encode_frame", counted(
            "encode", transport.encode_frame))
        monkeypatch.setattr(transport, "decode_frame", counted(
            "decode", transport.decode_frame))
        report = asyncio.run(run_live_async(fast_cfg(tmp_path)))
        assert report.ok, report.render()
        sends, receives = report.conformance.sends, report.conformance.receives
        assert calls["encode"] >= sends > 0
        assert calls["decode"] >= receives > 0

    def test_traced_run_still_delivers_and_its_trace_validates(self, tmp_path):
        # What tracing costs is the ledger's trace_overhead_frac; what it
        # must never cost is the run: same verdict, schema-valid traces
        # from the supervisor and every worker.
        from repro.obs import validate_file

        cfg = fast_cfg(tmp_path, trace=True)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()
        assert report.msgs_per_sec > 0
        assert validate_file(cfg.run_dir) == []
        traces = sorted(p.name for p in (tmp_path / "run").glob("trace-*"))
        assert traces == ["trace-P0-0.jsonl", "trace-P1-0.jsonl",
                          "trace-P2-0.jsonl", "trace-supervisor.jsonl"]

    def test_finalized_digests_match_disk(self, tmp_path):
        # The journal's finalize digests must equal what replaying the
        # on-disk checkpoint (CT digest folded over the log) yields —
        # journal, memory, and disk agreeing is the whole point.
        from repro.live import FileStableStorage

        cfg = fast_cfg(tmp_path)
        asyncio.run(run_live_async(cfg))
        checked = 0
        for pid, events in worker_events(cfg.run_dir).items():
            st = FileStableStorage(cfg.run_dir, pid)
            on_disk = set(st.finalized_csns())
            for ev in events:
                if ev["ev"] == "finalize" and ev["csn"] in on_disk:
                    fc = st.load_finalized(ev["csn"])
                    assert fc.replay_digest() == ev["digest"], (pid, ev)
                    checked += 1
        assert checked >= 3

    def test_crash_recovery_round_trip(self, tmp_path):
        cfg = fast_cfg(tmp_path, duration=2.2, crash_at=1.0)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()
        assert report.crash is not None
        assert report.crash.pid == 2  # default victim: highest pid
        assert report.conformance.rollbacks >= cfg.n  # all rolled back
        assert report.conformance.consistent
        # The victim restarted through resume(): its incarnation-1 journal
        # opens with a start(resume=seq) then the rollback restoring it.
        victim = [e for e in worker_events(cfg.run_dir)[2] if e["inc"] == 1]
        assert victim[0]["ev"] == "start"
        assert victim[0]["resume"] == report.crash.recovered_seq
        assert victim[1]["ev"] == "rollback"
        assert victim[1]["seq"] == report.crash.recovered_seq

    def test_supervisor_journal_records_the_crash(self, tmp_path):
        cfg = fast_cfg(tmp_path, duration=2.2, crash_at=1.0)
        asyncio.run(run_live_async(cfg))
        kinds = [e["ev"] for e in supervisor_events(cfg.run_dir)]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"
        assert "crash.inject" in kinds and "crash.recovered" in kinds

    def test_report_json_written(self, tmp_path):
        import json
        from pathlib import Path

        cfg = fast_cfg(tmp_path)
        report = asyncio.run(run_live_async(cfg))
        payload = json.loads(
            (Path(cfg.run_dir) / "report.json").read_text())
        assert payload["ok"] == report.ok
        assert payload["conformance"]["consistent"]

    def test_config_json_written_and_finalize_records_carry_no_log(
            self, tmp_path):
        import dataclasses
        from pathlib import Path

        cfg = fast_cfg(tmp_path)
        asyncio.run(run_live_async(cfg))
        run_dir = Path(cfg.run_dir)
        assert LiveRunConfig.from_json(
            (run_dir / "config.json").read_text()) == dataclasses.replace(
                cfg, run_dir=None)
        assert not (run_dir / "chaos-plan.json").exists()
        # The selective log lives in the C_k files; the journal's
        # finalize records carry only the window increments.
        finalizes = [ev for events in worker_events(run_dir).values()
                     for ev in events if ev["ev"] == "finalize"]
        assert len(finalizes) > cfg.n
        assert not any("logged" in ev for ev in finalizes)

    def test_config_validation(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="at least 2"):
            LiveRunConfig(n=1).validate()
        with pytest.raises(ValueError, match="transport"):
            LiveRunConfig(transport="carrier-pigeon").validate()
        with pytest.raises(ValueError, match="crash_at"):
            LiveRunConfig(duration=2.0, crash_at=5.0).validate()
        with pytest.raises(ValueError, match="workload"):
            LiveRunConfig(workload="nope").validate()
        with pytest.raises(ValueError, match="crash_pid"):
            LiveRunConfig(n=3, crash_pid=3, crash_at=1.0).validate()


class TestRingWorkload:
    def test_ring_traffic_run(self, tmp_path):
        cfg = fast_cfg(tmp_path, workload="ring", rate=40.0)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()


class TestTcpRun:
    def test_tcp_processes_run_is_consistent(self, tmp_path):
        # Real OS worker processes over localhost sockets.
        cfg = fast_cfg(tmp_path, transport="tcp", duration=2.0,
                       checkpoint_interval=0.4, timeout=0.2, rate=40.0)
        report = asyncio.run(run_live_async(cfg))
        assert report.ok, report.render()
        assert all(code == 0 for code in report.worker_exits.values()), (
            report.worker_exits)
        assert len(report.conformance.rounds_completed) >= 1

    def test_backends_report_the_same_shape(self, tmp_path):
        # One worker body behind both transports: the same per-worker
        # journal event vocabulary and the same report keys.
        def vocabulary(run_dir):
            return {pid: sorted({ev["ev"] for ev in events})
                    for pid, events in worker_events(run_dir).items()}

        reports, vocab = {}, {}
        for transport in ("tcp", "local"):
            cfg = fast_cfg(tmp_path / transport, transport=transport,
                           duration=2.0, checkpoint_interval=0.4,
                           timeout=0.2, rate=40.0)
            reports[transport] = asyncio.run(run_live_async(cfg))
            assert reports[transport].ok, reports[transport].render()
            vocab[transport] = vocabulary(cfg.run_dir)
        assert vocab["tcp"] == vocab["local"]
        assert "chaos" in vocab["local"][0]     # run-end evidence, both
        assert reports["tcp"].as_dict().keys() \
            == reports["local"].as_dict().keys()
        assert reports["tcp"].worker_exits == reports["local"].worker_exits \
            == {0: 0, 1: 0, 2: 0}

    def test_a_worker_that_misses_stop_grace_reports_killed(self, tmp_path):
        # The local backend used to report 0 for every worker, even one it
        # had to cancel; both backends now report the kill.
        exits = {}
        for transport in ("local", "tcp"):
            cfg = fast_cfg(tmp_path / transport, transport=transport, n=2,
                           duration=1.0, stop_grace=0.0)
            exits[transport] = asyncio.run(run_live_async(cfg)).worker_exits
        for transport, codes in exits.items():
            assert sorted(codes) == [0, 1], (transport, codes)
            assert codes[0] == -9, (transport, codes)


class TestInitiationSchedule:
    """A checkpoint taken for any reason restarts the live schedule.

    The rule is the shared driver's (``tests/core/test_driver.py``); this
    holds the live adapter to it on a real loop: before the hosts shared
    one driver only the simulator reset the schedule, so out-of-phase
    workers took a checkpoint per *worker* per interval.
    """

    def _joined_round_deadline(self, tmp_path, frame_for):
        from repro.live import Broker, FileStableStorage, Journal, LiveHost

        async def scenario():
            loop = asyncio.get_running_loop()
            host = LiveHost(1, 2, Broker().endpoint(1),
                            FileStableStorage(tmp_path, 1),
                            Journal(tmp_path, 1, 0),
                            checkpoint_interval=5.0, timeout=5.0)
            host.start()
            await asyncio.sleep(0.05)
            joined_at = loop.time()
            host.dispatch(frame_for(host))
            try:
                assert host.status == "tentative"
                return host._init_timer.when() - joined_at
            finally:
                host.stop()
                host.journal.close()

        return asyncio.run(scenario())

    def test_piggyback_join_rearms_a_full_interval(self, tmp_path):
        from repro.core.types import Piggyback, Status
        from repro.live.wire import app_frame, make_uid

        remaining = self._joined_round_deadline(tmp_path, lambda host: app_frame(
            0, 1, make_uid(0, 0, 1), 16,
            Piggyback(1, Status.TENTATIVE, frozenset({0})), host.epoch))
        assert remaining >= 5.0                 # not 5.0 − 0.05

    def test_next_round_ck_req_rearms_a_full_interval(self, tmp_path):
        from repro.core.types import ControlMessage, ControlType
        from repro.live.wire import ctl_frame

        remaining = self._joined_round_deadline(tmp_path, lambda host: ctl_frame(
            0, 1, ControlMessage(ControlType.CK_REQ, 1), host.epoch))
        assert remaining >= 5.0
