"""Tests for the Manivannan-Singhal quasi-synchronous baseline [8]."""

from __future__ import annotations

import pytest

from repro.baselines import CicRuntime, ManivannanSinghalRuntime
from repro.causality import ConsistencyVerifier
from repro.des import Simulator
from repro.net import ConstantLatency, Network, complete
from repro.storage import StableStorage
from repro.workload import ScriptedApp, SendAt

from .conftest import build_baseline_run, drain


class TestScheduleAndForcedRule:
    def test_basic_checkpoints_on_schedule(self):
        sim, net, st, rt = build_baseline_run(ManivannanSinghalRuntime,
                                              rate=0.0, horizon=200.0,
                                              interval=40.0)
        drain(sim, rt)
        for host in rt.hosts.values():
            # Silent workload: one basic checkpoint per slot, sn dense.
            sns = [c.sn for c in host.checkpoints]
            assert sns == list(range(1, len(sns) + 1))
            assert all(not c.forced for c in host.checkpoints)
            assert host.skipped_basics == 0

    def test_forced_checkpoint_substitutes_for_scheduled(self):
        """A forced checkpoint with sn=k makes the scheduled k-th skip —
        the MS saving over BCS."""
        sim = Simulator(seed=0)
        net = Network(sim, complete(2), ConstantLatency(1.0))
        st = StableStorage(sim)
        rt = ManivannanSinghalRuntime(sim, net, st, interval=50.0,
                                      state_bytes=100, capture_time=0.1,
                                      clock_skew=0.2, horizon=120.0)
        # P0's slot-1 fires somewhere in [40, 60]; it then messages P1.
        # If P1's own slot is later, the message forces P1's sn to 1 and
        # P1 SKIPS its scheduled slot-1 checkpoint.
        apps = {0: ScriptedApp([SendAt(61.0, 1, "m")])}
        rt.build(apps)
        rt.start()
        sim.run(max_events=10_000)
        h1 = rt.hosts[1]
        total_slots = 2  # slots 1 and 2 fit in horizon 120
        assert len(h1.checkpoints) + h1.skipped_basics >= total_slots

    def test_forced_before_processing(self):
        sim = Simulator(seed=0)
        net = Network(sim, complete(2), ConstantLatency(1.0))
        st = StableStorage(sim)
        rt = ManivannanSinghalRuntime(sim, net, st, interval=1000.0,
                                      state_bytes=100, capture_time=0.3,
                                      clock_skew=0.0, horizon=10.0)
        apps = {0: ScriptedApp([SendAt(5.0, 1, "m")])}
        rt.build(apps)
        rt.start()
        # Hand-raise P0's sn so its message forces P1.
        rt.hosts[0].sn = 1
        rt.hosts[0]._take(forced=False)
        sim.run(max_events=10_000)
        h1 = rt.hosts[1]
        forced = [c for c in h1.checkpoints if c.forced]
        assert len(forced) == 1
        assert forced[0].rmark == 0  # receive excluded from the cut
        assert h1.response_delays[-1] == pytest.approx(0.3)

    def test_invalid_clock_skew_rejected(self):
        sim = Simulator()
        net = Network(sim, complete(2), ConstantLatency(1.0))
        with pytest.raises(ValueError):
            ManivannanSinghalRuntime(sim, net, StableStorage(sim),
                                     clock_skew=0.7)


class TestConsistencyAndCosts:
    def test_sn_cuts_consistent(self):
        sim, net, st, rt = build_baseline_run(ManivannanSinghalRuntime,
                                              rate=2.0)
        drain(sim, rt)
        assert len(rt.global_records()) >= 3
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())

    def test_fewer_checkpoints_than_bcs(self):
        """The substitution rule keeps MS's checkpoint count far below
        BCS's on identical workloads."""
        kw = dict(n=5, seed=3, horizon=200.0, interval=40.0, rate=3.0)
        sim_ms, _, _, ms = build_baseline_run(ManivannanSinghalRuntime, **kw)
        drain(sim_ms, ms)
        sim_cic, _, _, cic = build_baseline_run(CicRuntime, **kw)
        drain(sim_cic, cic)
        assert ms.total_checkpoints() < cic.total_checkpoints()
        assert ms.skipped_basics() > 0

    def test_roughly_one_checkpoint_per_interval(self):
        sim, net, st, rt = build_baseline_run(ManivannanSinghalRuntime,
                                              n=5, rate=3.0, horizon=200.0,
                                              interval=40.0)
        drain(sim, rt)
        slots = 200.0 / 40.0
        for host in rt.hosts.values():
            # Forced checkpoints can only run slightly ahead of schedule:
            # at most one extra beyond the slot count.
            assert len(host.checkpoints) <= slots + 1

    def test_piggyback_four_bytes(self):
        sim, net, st, rt = build_baseline_run(ManivannanSinghalRuntime,
                                              rate=1.0, horizon=80.0)
        drain(sim, rt)
        assert (net.total_overhead_bytes("app")
                == 4 * net.total_sent("app"))

    def test_registered_in_harness(self):
        from repro.harness import ExperimentConfig, run_experiment
        res = run_experiment(ExperimentConfig(
            protocol="quasi-sync-ms", n=4, seed=1, horizon=100.0,
            checkpoint_interval=35.0, state_bytes=50_000,
            workload_kwargs={"rate": 1.5, "msg_size": 256}))
        assert res.consistent
        assert res.metrics.rounds_completed >= 1
