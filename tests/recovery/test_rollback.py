"""Tests for recovery analysis and failure injection (E8 machinery)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines import UncoordinatedRuntime
from repro.causality.recovery_line import IntervalMessage
from repro.des.trace import TraceRecorder
from repro.harness import ExperimentConfig, run_experiment
from repro.recovery import (
    FailureInjector,
    NoRecoveryPoint,
    interval_messages_at,
    recover_cic,
    recover_coordinated,
    recover_optimistic,
    recover_optimistic_no_log,
    recover_uncoordinated,
)


def run(protocol, **kw):
    cfg = ExperimentConfig(protocol=protocol, n=4, seed=2, horizon=150.0,
                           checkpoint_interval=40.0, state_bytes=200_000,
                           timeout=10.0,
                           workload_kwargs={"rate": 1.5, "msg_size": 512},
                           **kw)
    return run_experiment(cfg)


class TestOptimisticRecovery:
    def test_recovers_to_latest_complete_seq(self):
        res = run("optimistic")
        out = recover_optimistic(res.runtime, fail_time=120.0)
        assert out.seq >= 1
        assert out.max_lost_work <= 120.0
        assert all(t <= 120.0 for t in out.recovered_to.values())

    def test_earlier_failure_earlier_seq(self):
        res = run("optimistic")
        early = recover_optimistic(res.runtime, fail_time=60.0)
        late = recover_optimistic(res.runtime, fail_time=145.0)
        assert late.seq >= early.seq
        assert late.total_lost_work <= 4 * 145.0

    def test_no_recovery_point_before_first_round(self):
        res = run("optimistic")
        # Sequence 0 finalizes at t=0, so even t=0.01 has a recovery point.
        out = recover_optimistic(res.runtime, fail_time=0.01)
        assert out.seq == 0

    def test_log_replay_beats_no_log(self):
        """Selective logging recovers work between CT and CFE: lost work
        without the log is >= lost work with it."""
        res = run("optimistic")
        with_log = recover_optimistic(res.runtime, fail_time=120.0)
        without = recover_optimistic_no_log(res.runtime, fail_time=120.0)
        assert without.seq == with_log.seq
        assert without.total_lost_work >= with_log.total_lost_work


class TestCoordinatedRecovery:
    @pytest.mark.parametrize("protocol", ["chandy-lamport", "koo-toueg",
                                          "staggered"])
    def test_recovers_to_last_complete_round(self, protocol):
        res = run(protocol)
        out = recover_coordinated(res.runtime, fail_time=120.0,
                                  protocol=protocol)
        assert out.seq >= 1
        assert out.max_lost_work <= 120.0

    def test_raises_before_any_round(self):
        res = run("koo-toueg")
        with pytest.raises(NoRecoveryPoint):
            recover_coordinated(res.runtime, fail_time=5.0,
                                protocol="koo-toueg")


class TestCicRecovery:
    def test_recovers_to_index_cut(self):
        res = run("cic-bcs")
        out = recover_cic(res.runtime, fail_time=120.0)
        assert out.seq >= 1
        assert all(t <= 120.0 for t in out.recovered_to.values())

    def test_raises_before_any_cut(self):
        res = run("cic-bcs")
        with pytest.raises(NoRecoveryPoint):
            recover_cic(res.runtime, fail_time=1.0)


class TestQuasiSyncMsRecovery:
    def test_recovers_to_sn_cut(self):
        from repro.recovery import recover_quasi_sync_ms
        res = run("quasi-sync-ms")
        out = recover_quasi_sync_ms(res.runtime, fail_time=120.0)
        assert out.seq >= 1
        assert all(t <= 120.0 for t in out.recovered_to.values())

    def test_raises_before_any_cut(self):
        from repro.recovery import recover_quasi_sync_ms
        res = run("quasi-sync-ms")
        with pytest.raises(NoRecoveryPoint):
            recover_quasi_sync_ms(res.runtime, fail_time=1.0)


class TestPlankRecovery:
    def test_recovers_to_last_complete_round(self):
        res = run("plank-staggered")
        out = recover_coordinated(res.runtime, fail_time=120.0,
                                  protocol="plank-staggered")
        assert out.seq >= 1
        assert out.max_lost_work <= 120.0


class TestUncoordinatedRecovery:
    def test_domino_without_logs(self):
        res = run("uncoordinated")
        out = recover_uncoordinated(res.runtime, res.sim.trace,
                                    fail_time=140.0)
        assert out.protocol == "uncoordinated"
        assert sum(out.rollback_checkpoints.values()) > 0

    def test_logs_bound_rollback(self):
        res = run("uncoordinated", uncoordinated_logging=True)
        out = recover_uncoordinated(res.runtime, res.sim.trace,
                                    fail_time=140.0, use_logs=True)
        assert sum(out.rollback_checkpoints.values()) == 0

    def test_uncoordinated_loses_more_than_optimistic(self):
        opt = run("optimistic")
        unc = run("uncoordinated")
        t = 140.0
        lost_opt = recover_optimistic(opt.runtime, t).total_lost_work
        lost_unc = recover_uncoordinated(unc.runtime, unc.sim.trace,
                                         t).total_lost_work
        assert lost_unc > lost_opt

    def test_fail_time_filters_future_checkpoints(self):
        res = run("uncoordinated")
        early = recover_uncoordinated(res.runtime, res.sim.trace,
                                      fail_time=50.0)
        # Nothing recovered-to can postdate the failure.
        assert all(t <= 50.0 for t in early.recovered_to.values())


class TestIntervalMessages:
    def test_first_delivery_of_a_duplicated_message_counts(self):
        # uid 1 is sent at 1.0 and delivered at 2.0; a chaos duplicate is
        # delivered again at 5.0.  A failure at 3.0 comes after the first
        # delivery, so the message is in the pattern.
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", 0, uid=1, dst=1, kind="app")
        trace.record(2.0, "msg.deliver", 1, uid=1, src=0, kind="app",
                     bytes=8)
        trace.record(5.0, "msg.deliver", 1, uid=1, src=0, kind="app",
                     bytes=8, redelivered=True)
        runtime = SimpleNamespace(hosts={
            0: SimpleNamespace(checkpoints=[], sent_uids=[1], recv_uids=[]),
            1: SimpleNamespace(checkpoints=[], sent_uids=[], recv_uids=[1]),
        })
        start, messages, ck_times = interval_messages_at(runtime, trace, 3.0)
        assert start == {0: 0, 1: 0}
        assert messages == [IntervalMessage(src=0, src_interval=0, dst=1,
                                            dst_interval=0, uid=1)]
        assert ck_times == {0: [0.0], 1: [0.0]}
        # Before the first delivery it is not.
        assert interval_messages_at(runtime, trace, 1.5)[1] == []


class TestFailureInjector:
    def test_crashed_process_goes_silent(self):
        from repro.core import OptimisticConfig, OptimisticRuntime
        from repro.des import Simulator
        from repro.net import Network, UniformLatency, complete
        from repro.storage import StableStorage
        from repro.workload import make as make_workload

        sim = Simulator(seed=4)
        net = Network(sim, complete(4), UniformLatency(0.1, 0.5))
        st = StableStorage(sim)
        cfg = OptimisticConfig(checkpoint_interval=30.0, timeout=10.0,
                               state_bytes=1000, strict=False)
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=100.0)
        rt.build(make_workload("uniform", 4, 100.0, rate=2.0))
        inj = FailureInjector(sim, net)
        inj.crash(2, at=50.0)
        rt.start()
        sim.run(max_events=500_000)
        assert inj.crashed == {2}
        assert inj.alive() == [0, 1, 3]
        # No sends from P2 after the crash.
        late_sends = [r for r in sim.trace.filter("msg.send", process=2)
                      if r.time > 50.0]
        assert late_sends == []
        # Deliveries to P2 after the crash were dropped.
        drops = sim.trace.filter("msg.drop", process=2)
        assert all(r.time >= 50.0 for r in drops)

    def test_unknown_pid_rejected(self):
        from repro.des import Simulator
        from repro.net import Network, complete

        sim = Simulator()
        net = Network(sim, complete(2))
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError):
            inj.crash(5, at=1.0)

    def test_finalized_checkpoints_survive_crash(self):
        """Global checkpoints finalized before a crash remain consistent."""
        from repro.causality import ConsistencyVerifier
        from repro.core import OptimisticConfig, OptimisticRuntime
        from repro.des import Simulator
        from repro.net import Network, UniformLatency, complete
        from repro.storage import StableStorage
        from repro.workload import make as make_workload

        sim = Simulator(seed=7)
        net = Network(sim, complete(4), UniformLatency(0.1, 0.5))
        st = StableStorage(sim)
        cfg = OptimisticConfig(checkpoint_interval=25.0, timeout=8.0,
                               state_bytes=1000, strict=False)
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=200.0)
        rt.build(make_workload("uniform", 4, 200.0, rate=2.0))
        FailureInjector(sim, net).crash(1, at=120.0)
        rt.start()
        sim.run(max_events=1_000_000)
        complete_seqs = rt.finalized_seqs()
        assert len(complete_seqs) >= 2  # progress before the crash
        verifier = ConsistencyVerifier(sim.trace)
        results = verifier.verify_all(rt.global_records())
        assert all(not o for o in results.values())
