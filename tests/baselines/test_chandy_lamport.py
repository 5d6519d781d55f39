"""Tests for the Chandy-Lamport baseline."""

from __future__ import annotations

import pytest

from repro.baselines import ChandyLamportRuntime
from repro.causality import ConsistencyVerifier
from repro.des import Simulator
from repro.net import ConstantLatency, Network, UniformLatency, complete
from repro.storage import StableStorage
from repro.workload import ScriptedApp, SendAt

from .conftest import build_baseline_run, drain


class TestRequirements:
    def test_requires_fifo_network(self):
        sim = Simulator()
        net = Network(sim, complete(3), ConstantLatency(1.0), fifo=False)
        with pytest.raises(ValueError, match="FIFO"):
            ChandyLamportRuntime(sim, net, StableStorage(sim))


class TestSnapshots:
    def test_rounds_complete_and_consistent(self):
        sim, net, st, rt = build_baseline_run(ChandyLamportRuntime,
                                              fifo=True)
        drain(sim, rt)
        rounds = list(rt.global_records())
        assert len(rounds) >= 3
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not orphans for orphans in results.values())

    def test_every_process_records_every_round(self):
        sim, net, st, rt = build_baseline_run(ChandyLamportRuntime,
                                              fifo=True)
        drain(sim, rt)
        for r in rt.global_records():
            for host in rt.hosts.values():
                assert host.rounds[r].complete

    def test_marker_count_per_round(self):
        # Complete graph: every process sends N-1 markers per round.
        n = 4
        sim, net, st, rt = build_baseline_run(ChandyLamportRuntime, n=n,
                                              fifo=True, horizon=90.0,
                                              interval=40.0)
        drain(sim, rt)
        rounds = len(rt.global_records())
        markers = rt.control_message_count("MARKER")
        assert markers == rounds * n * (n - 1)

    def test_all_state_writes_cluster_in_time(self):
        """The contention signature: all N state writes of a round arrive
        within one marker latency of each other."""
        sim, net, st, rt = build_baseline_run(
            ChandyLamportRuntime, n=6, fifo=True, horizon=90.0,
            interval=40.0, latency=UniformLatency(0.2, 1.0))
        drain(sim, rt)
        arrivals = sorted(r.arrive for r in st.requests
                          if r.label.startswith("cl:")
                          and r.label.endswith(":1"))
        assert len(arrivals) == 6
        assert arrivals[-1] - arrivals[0] <= 1.0  # max marker latency

    def test_channel_state_captured(self):
        """A message overtaken by the marker flood lands in channel state."""
        sim = Simulator(seed=0)
        net = Network(sim, complete(3), ConstantLatency(2.0), fifo=True)
        st = StableStorage(sim)
        rt = ChandyLamportRuntime(sim, net, st, interval=10.0,
                                  state_bytes=100, horizon=15.0)
        # P1 sends to P2 at t=9.5; marker flood starts at t=10; P2 records
        # at t=12 on P0's marker, and P1's marker (sent t=12, after P1
        # recorded at 12... )
        apps = {1: ScriptedApp([SendAt(9.5, 2, "late")])}
        rt.build(apps)
        drain(sim, rt)
        # The late message was delivered at 11.5, P2 recorded its state at
        # 12 (first marker) — delivered BEFORE the snapshot, so it is plain
        # pre-snapshot state, not channel state.  Check consistency anyway
        # and that the run completes.
        assert list(rt.global_records()) == [1]
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_in_flight_message_becomes_channel_state(self):
        sim = Simulator(seed=0)
        net = Network(sim, complete(3), ConstantLatency(5.0), fifo=True)
        st = StableStorage(sim)
        rt = ChandyLamportRuntime(sim, net, st, interval=10.0,
                                  state_bytes=100, horizon=15.0)
        # Sent at 8, delivered at 13; P2 records at 15 (P0's marker sent at
        # 10 arrives 15) — wait, marker also takes 5s.  Message delivered
        # at 13 < marker arrival 15, and P2 has NOT yet recorded at 13, so
        # it is pre-snapshot.  To land in channel state the message must be
        # delivered after the receiver recorded but before that channel's
        # marker: P1 sends at 9.9 (arrives 14.9); P1's marker goes out only
        # when P1 records (P0's marker reaches it at 15) -> marker arrives
        # at P2 at 20 > 14.9.  P2 records at 15?  No: P2 records on its
        # FIRST marker, which is P0's at t=15; 14.9 < 15 so still
        # pre-snapshot.  Use two rounds of indirection instead: P2 records
        # at 15, P1's message sent at 9.9 arrives 14.9 (pre).  Send another
        # at 10.5 from P1 (P1 still unrecorded): arrives 15.5 — after P2
        # recorded (15) and before P1's marker (sent 15, arrives 20):
        # channel state!
        apps = {1: ScriptedApp([SendAt(10.5, 2, "inflight")])}
        rt.build(apps)
        drain(sim, rt)
        h2 = rt.hosts[2]
        st_round = h2.rounds[1]
        assert len(st_round.channel_uids) == 1
        assert st_round.channel_bytes > 0
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_channel_state_flushed_to_storage(self):
        sim, net, st, rt = build_baseline_run(ChandyLamportRuntime,
                                              fifo=True, horizon=90.0,
                                              interval=40.0)
        drain(sim, rt)
        chan_writes = [r for r in st.requests
                       if r.label.startswith("cl-chan:")]
        assert len(chan_writes) == len(rt.global_records()) * rt.n
