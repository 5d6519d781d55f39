"""Feature-interaction matrix: combinations are where bugs hide.

Each test combines two orthogonal capabilities (incremental checkpoints,
networked storage, live recovery, partitions, NIC/medium bandwidth) and
asserts the core guarantees still hold: the run drains, every complete
global checkpoint is consistent, and nobody is left stuck.
"""

from __future__ import annotations

import pytest

from repro.causality import ConsistencyVerifier
from repro.chaos import DesChaosInjector, Fault, FaultPlan
from repro.core import OptimisticConfig, OptimisticRuntime
from repro.des import Simulator
from repro.harness import ExperimentConfig, run_experiment
from repro.net import Network, UniformLatency, complete
from repro.recovery import RecoveryManager
from repro.storage import StableStorage
from repro.workload import make as make_workload


class TestIncrementalPlusRecovery:
    def test_rollback_with_delta_chain(self):
        sim = Simulator(seed=4)
        net = Network(sim, complete(4), UniformLatency(0.1, 0.5))
        st = StableStorage(sim)
        cfg = OptimisticConfig(checkpoint_interval=40.0, timeout=10.0,
                               state_bytes=1_000_000, incremental_every=3,
                               strict=False)
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=400.0)
        rt.build(make_workload("uniform", 4, 400.0, rate=2.0))
        mgr = RecoveryManager(rt)
        mgr.crash_and_recover(1, at=200.0, recovery_delay=5.0)
        rt.start()
        sim.run(max_events=3_000_000)
        assert sim.peek_time() is None
        (ev,) = mgr.events
        post = [s for s in rt.finalized_seqs() if s > ev.recovered_seq]
        assert post
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())
        # Chain discipline still holds after rollback re-execution.
        for host in rt.hosts.values():
            held = sorted(host._held_gens)
            assert held, "nothing retained?"
            floor = held[-1] - 1
            while floor >= 1 and not cfg.is_full_checkpoint(floor):
                floor -= 1
            assert all(g >= floor for g in held)


class TestNetworkedStoragePlusRecovery:
    def test_crash_with_in_flight_checkpoint_transfers(self):
        res_cfg = ExperimentConfig(
            n=4, seed=6, horizon=400.0, checkpoint_interval=40.0,
            state_bytes=2_000_000, timeout=12.0, networked_storage=True,
            nic_bandwidth=5e6,
            workload_kwargs={"rate": 1.5, "msg_size": 512}, verify=False)
        from repro.harness.experiment import build_experiment
        sim, net, storage, rt = build_experiment(res_cfg)
        # Relax strictness: crashes violate the theorems' assumptions.
        for host in rt.hosts.values():
            host.config.strict = False
        mgr = RecoveryManager(rt)
        mgr.crash_and_recover(2, at=150.0, recovery_delay=10.0)
        rt.start()
        sim.run(max_events=3_000_000)
        assert sim.peek_time() is None
        (ev,) = mgr.events
        assert [s for s in rt.finalized_seqs() if s > ev.recovered_seq]
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())


class TestPartitionPlusBandwidth:
    def test_partition_under_shared_medium(self):
        sim = Simulator(seed=8)
        net = Network(sim, complete(5), UniformLatency(0.1, 0.4),
                      medium_bandwidth=50e6)
        st = StableStorage(sim)
        cfg = OptimisticConfig(checkpoint_interval=45.0, timeout=12.0,
                               state_bytes=100_000)
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=250.0)
        rt.build(make_workload("uniform", 5, 250.0, rate=1.5))
        DesChaosInjector(sim, net, FaultPlan(faults=(Fault(
            "partition", start=60.0, end=130.0, group_a=(0, 1),
            group_b=(2, 3, 4)),)))
        rt.start()
        sim.run(max_events=3_000_000)
        assert sim.peek_time() is None
        assert all(h.status == "normal" for h in rt.hosts.values())
        rt.assert_consistent()


class TestIncrementalPlusNetworkedStorage:
    def test_delta_transfers_on_the_wire(self):
        res = run_experiment(ExperimentConfig(
            n=4, seed=9, horizon=300.0, checkpoint_interval=40.0,
            state_bytes=1_000_000, timeout=10.0, networked_storage=True,
            incremental_every=3,
            workload_kwargs={"rate": 1.5, "msg_size": 256}))
        assert res.consistent
        # Wire bytes reflect the delta schedule, not full states each time.
        wire = res.network.total_bytes("storage")
        ckpts = res.metrics.checkpoints
        assert wire < ckpts * 1_000_000 * 0.7


class TestFastPathPlusControlAblation:
    def test_all_switches_on_still_converge(self):
        res = run_experiment(ExperimentConfig(
            n=6, seed=10, horizon=200.0, checkpoint_interval=40.0,
            state_bytes=100_000, timeout=10.0, workload="half_silent",
            machine_kwargs={"finalize_on_complete_knowledge": True,
                            "suppress_ck_bgn": False,
                            "skip_ck_req": False,
                            "p0_broadcast_on_finalize": False},
            workload_kwargs={}))
        assert res.consistent
        assert res.metrics.rounds_completed >= 2
        assert all(h.status == "normal"
                   for h in res.runtime.hosts.values())
