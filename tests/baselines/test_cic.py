"""Tests for the communication-induced (BCS) baseline."""

from __future__ import annotations

import pytest

from repro.baselines import CicRuntime
from repro.causality import ConsistencyVerifier
from repro.des import Simulator
from repro.net import ConstantLatency, Network, complete
from repro.storage import StableStorage
from repro.workload import ScriptedApp, SendAt

from .conftest import build_baseline_run, drain


class TestForcedRule:
    def test_forced_checkpoint_before_processing(self):
        """P0 checkpoints (index 1) then messages P1: P1 must take a forced
        checkpoint whose cut excludes the message, and the app sees the
        message only after the capture delay."""
        sim = Simulator(seed=0)
        net = Network(sim, complete(2), ConstantLatency(1.0))
        st = StableStorage(sim)
        # Huge interval: no timer-driven basics; we drive P0's basic by hand
        # so P1's index provably lags.
        rt = CicRuntime(sim, net, st, interval=1000.0, state_bytes=100,
                        capture_time=0.25, horizon=6.0)
        apps = {0: ScriptedApp([SendAt(5.5, 1, "m")])}
        rt.build(apps)
        rt.start()
        sim.schedule_at(5.0, rt.hosts[0]._basic_checkpoint)
        sim.run(max_events=10_000)
        h1 = rt.hosts[1]
        forced = [c for c in h1.checkpoints if c.forced]
        assert len(forced) == 1
        assert forced[0].index == 1
        assert forced[0].taken_at == pytest.approx(6.5)  # at delivery
        assert forced[0].rmark == 0  # message receive NOT in the cut
        assert h1.response_delays[-1] == pytest.approx(0.25)

    def test_no_forced_checkpoint_for_equal_or_lower_index(self):
        sim = Simulator(seed=0)
        net = Network(sim, complete(2), ConstantLatency(1.0))
        st = StableStorage(sim)
        rt = CicRuntime(sim, net, st, interval=100.0, state_bytes=100,
                        capture_time=0.25, horizon=10.0)
        apps = {0: ScriptedApp([SendAt(1.0, 1, "m")])}  # both at index 0
        rt.build(apps)
        rt.start()
        sim.run(max_events=10_000)
        assert rt.forced_checkpoints() == 0
        assert rt.hosts[1].response_delays == [0.0]


class TestIndexCuts:
    def test_index_cuts_consistent(self):
        sim, net, st, rt = build_baseline_run(CicRuntime, rate=2.0)
        drain(sim, rt)
        assert len(rt.global_records()) >= 3
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_indices_monotone_per_process(self):
        sim, net, st, rt = build_baseline_run(CicRuntime, rate=2.0)
        drain(sim, rt)
        for host in rt.hosts.values():
            idxs = [c.index for c in host.checkpoints]
            assert idxs == sorted(idxs)
            assert len(set(idxs)) == len(idxs)  # strictly increasing


class TestCosts:
    def test_forced_checkpoints_inflate_total(self):
        """The paper's critique: communication induces checkpoints well
        beyond the basic one-per-interval schedule."""
        sim, net, st, rt = build_baseline_run(CicRuntime, rate=3.0,
                                              horizon=200.0, interval=40.0)
        drain(sim, rt)
        assert rt.forced_checkpoints() > 0
        assert rt.total_checkpoints() > rt.basic_checkpoints()

    def test_more_traffic_more_forced_checkpoints(self):
        def forced(rate, seed=3):
            sim, net, st, rt = build_baseline_run(CicRuntime, rate=rate,
                                                  seed=seed, horizon=200.0)
            drain(sim, rt)
            return rt.forced_checkpoints()

        assert forced(4.0) > forced(0.2)

    def test_response_delays_reported(self):
        sim, net, st, rt = build_baseline_run(CicRuntime, rate=2.0,
                                              capture_time=0.5)
        drain(sim, rt)
        delays = rt.response_delays()
        assert any(d == pytest.approx(0.5) for d in delays)

    def test_piggyback_is_four_bytes_per_message(self):
        sim, net, st, rt = build_baseline_run(CicRuntime, rate=1.0,
                                              horizon=60.0)
        drain(sim, rt)
        app_msgs = net.total_sent("app")
        assert net.total_overhead_bytes("app") == 4 * app_msgs
