"""Tests for the staggered (Plank/Vaidya) baseline."""

from __future__ import annotations

import pytest

from repro.baselines import StaggeredRuntime
from repro.causality import ConsistencyVerifier
from repro.storage import DiskModel

from .conftest import build_baseline_run, drain


class TestStaggering:
    def test_rounds_complete_and_consistent(self):
        sim, net, st, rt = build_baseline_run(StaggeredRuntime)
        drain(sim, rt)
        assert len(rt.global_records()) >= 3
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_state_writes_never_overlap(self):
        """The whole point: the token serializes state writes, so no state
        write starts before the previous one finished."""
        sim, net, st, rt = build_baseline_run(
            StaggeredRuntime, n=6,
            disk=DiskModel(seek_time=0.5, bandwidth=1e6),  # 1s writes
            state_bytes=500_000, horizon=90.0, interval=60.0)
        drain(sim, rt)
        state_reqs = sorted((r for r in st.requests
                             if r.label.startswith("stag:")),
                            key=lambda r: r.arrive)
        for a, b in zip(state_reqs, state_reqs[1:]):
            assert b.start >= a.finish - 1e-9
        # ... consequently nobody ever queued behind a state write.
        assert all(r.wait == pytest.approx(0.0) for r in state_reqs)

    def test_round_latency_scales_with_n(self):
        def mean_latency(n):
            sim, net, st, rt = build_baseline_run(
                StaggeredRuntime, n=n,
                disk=DiskModel(seek_time=0.5, bandwidth=1e9),
                horizon=150.0, interval=70.0)
            drain(sim, rt)
            lats = rt.round_latencies()
            return sum(lats) / len(lats)

        assert mean_latency(8) > mean_latency(3)

    def test_sender_side_logging_covers_round_window(self):
        sim, net, st, rt = build_baseline_run(StaggeredRuntime, rate=3.0,
                                              horizon=90.0, interval=40.0)
        drain(sim, rt)
        logged_total = sum(len(h.rounds[r].logged_uids)
                           for h in rt.hosts.values()
                           for r in rt.global_records())
        assert logged_total > 0
        # Log flush writes exist for every (process, round).
        log_writes = [r for r in st.requests
                      if r.label.startswith("stag-log:")]
        assert len(log_writes) == len(rt.global_records()) * rt.n

    def test_token_messages_n_per_round(self):
        n = 5
        sim, net, st, rt = build_baseline_run(StaggeredRuntime, n=n,
                                              horizon=90.0, interval=40.0)
        drain(sim, rt)
        rounds = len(rt.global_records())
        assert rt.control_message_count("TOKEN") == rounds * n
        assert rt.control_message_count("END") == rounds * (n - 1)

    def test_checkpoint_take_times_strictly_ordered_by_pid(self):
        sim, net, st, rt = build_baseline_run(StaggeredRuntime, n=5,
                                              horizon=90.0, interval=40.0)
        drain(sim, rt)
        for r in rt.global_records():
            times = [rt.hosts[pid].rounds[r].taken_at for pid in range(5)]
            assert times == sorted(times)
