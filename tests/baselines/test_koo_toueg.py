"""Tests for the Koo-Toueg blocking baseline."""

from __future__ import annotations

import pytest

from repro.baselines import KooTouegRuntime
from repro.causality import ConsistencyVerifier

from .conftest import build_baseline_run, drain


class TestRounds:
    def test_rounds_commit_and_are_consistent(self):
        sim, net, st, rt = build_baseline_run(KooTouegRuntime)
        drain(sim, rt)
        assert len(rt.global_records()) >= 3
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_blocking_time_positive(self):
        """The defining cost: processes block sends during the 2-phase
        window (paper §1's critique of synchronous schemes)."""
        sim, net, st, rt = build_baseline_run(KooTouegRuntime)
        drain(sim, rt)
        assert rt.total_blocked_time() > 0
        for host in rt.hosts.values():
            assert host.blocked_time > 0
            assert not host.sends_blocked  # all released at the end

    def test_control_message_count_three_per_round(self):
        n = 5
        sim, net, st, rt = build_baseline_run(KooTouegRuntime, n=n,
                                              horizon=90.0, interval=40.0)
        drain(sim, rt)
        rounds = len(rt.global_records())
        total = rt.control_message_count()
        assert total == rounds * 3 * (n - 1)  # REQ + ACK + COMMIT

    def test_sends_queued_while_blocked_are_delivered_late(self):
        sim, net, st, rt = build_baseline_run(KooTouegRuntime, rate=5.0)
        drain(sim, rt)
        # Blocked sends were queued, not dropped: every app message sent is
        # eventually delivered.
        assert (net.delivered_by_kind.get("app", 0)
                == net.sent_by_kind.get("app", 0))
        # And unblock events recorded queued messages at least once.
        unblocks = sim.trace.filter("app.unblock")
        assert any(rec.data["queued"] > 0 for rec in unblocks)

    def test_state_writes_cluster_per_round(self):
        n = 5
        sim, net, st, rt = build_baseline_run(KooTouegRuntime, n=n,
                                              horizon=90.0, interval=40.0)
        drain(sim, rt)
        arrivals = sorted(r.arrive for r in st.requests
                          if r.label.startswith("kt:") and r.label.endswith(":1"))
        assert len(arrivals) == n
        assert arrivals[-1] - arrivals[0] <= 1.0  # one request latency

    def test_tentative_marks_before_commit(self):
        sim, net, st, rt = build_baseline_run(KooTouegRuntime, horizon=90.0,
                                              interval=40.0)
        drain(sim, rt)
        for host in rt.hosts.values():
            for r, committed_at in host.committed.items():
                if r == 0:
                    continue
                taken_at, _, _ = host.tentative_marks[r]
                assert taken_at <= committed_at
