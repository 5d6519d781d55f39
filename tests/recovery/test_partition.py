"""Tests for network partitions (a ``partition`` fault on the DES chaos
injector): delayed-not-lost delivery, Theorem 1 under partitions."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosError, DesChaosInjector, Fault, FaultPlan
from repro.core import OptimisticConfig, OptimisticRuntime
from repro.des import SimProcess, Simulator
from repro.net import ConstantLatency, Network, UniformLatency, complete
from repro.storage import StableStorage
from repro.workload import make as make_workload


class Sink(SimProcess):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.got = []

    def on_message(self, msg):
        self.got.append((self.now, msg.payload))


def cut(group_a, group_b, start, end, frames=("app", "ctl")):
    """One partition fault: ``group_a`` and ``group_b`` over [start, end)."""
    return Fault("partition", start=start, end=end, group_a=tuple(group_a),
                 group_b=tuple(group_b), frames=frames)


def partition(sim, net, *cuts):
    """Install the partition faults ``cuts`` on ``net``."""
    return DesChaosInjector(sim, net, FaultPlan(faults=cuts))


def plain_net(n=4):
    sim = Simulator(seed=1)
    net = Network(sim, complete(n), ConstantLatency(1.0))
    procs = [Sink(i, sim) for i in range(n)]
    net.add_processes(procs)
    return sim, net, procs


class TestGateSemantics:
    def test_cross_cut_messages_held_until_heal(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0, 1}, {2, 3}, start=5.0, end=20.0))
        sim.schedule_at(6.0, lambda: net.send(0, 2, "cross"))
        sim.run()
        assert len(procs[2].got) == 1
        t, payload = procs[2].got[0]
        assert payload == "cross"
        assert t >= 20.0  # delivered only after the heal

    def test_within_group_messages_unaffected(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0, 1}, {2, 3}, start=5.0, end=20.0))
        sim.schedule_at(6.0, lambda: net.send(0, 1, "local"))
        sim.run()
        assert procs[1].got[0][0] == pytest.approx(7.0)

    def test_messages_before_and_after_partition_normal(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0}, {1, 2, 3}, start=5.0, end=10.0))
        net.send(0, 1, "before")          # delivered t=1
        sim.schedule_at(12.0, lambda: net.send(0, 1, "after"))
        sim.run()
        times = [t for t, _ in procs[1].got]
        assert times == [pytest.approx(1.0), pytest.approx(13.0)]

    def test_held_messages_released_in_order(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0}, {1, 2, 3}, start=0.5, end=30.0))
        for i in range(5):
            sim.schedule_at(1.0 + i, lambda i=i: net.send(0, 1, i))
        sim.run()
        assert [p for _, p in procs[1].got] == [0, 1, 2, 3, 4]
        assert all(t >= 30.0 for t, _ in procs[1].got)

    def test_no_message_lost(self):
        sim, net, procs = plain_net()
        inj = partition(sim, net, cut({0, 1}, {2, 3}, start=2.0, end=8.0))
        for t in (1.0, 3.0, 5.0, 9.0):
            sim.schedule_at(t, lambda: net.send(0, 3, "x"))
        sim.run()
        assert len(procs[3].got) == 4
        assert inj.injected == {"partition": 2}
        assert net.in_flight() == 0

    def test_validation(self):
        for bad, match in ((cut(set(), {1}, 0.0, 1.0), "requires group_a"),
                           (cut({0, 1}, {1, 2}, 0.0, 1.0), "groups overlap"),
                           (cut({0}, {1}, 2.0, 1.0), "end=1.0 <= start")):
            with pytest.raises(ChaosError, match=match):
                bad.validate()

    def test_message_crossing_overlapping_cuts_arrives_after_later_heal(self):
        sim, net, procs = plain_net()
        inj = partition(sim, net, cut({0}, {1, 2, 3}, 0.0, 5.0),
                        cut({0, 1}, {2, 3}, 3.0, 10.0))
        sim.schedule_at(4.0, lambda: net.send(0, 2, "both"))
        sim.run()
        ((t, payload),) = procs[2].got
        assert payload == "both" and t > 10.0
        # Held by each cut in turn: the first until 5, the second until 10.
        assert inj.injected == {"partition": 2}
        assert sim.trace.count("msg.held") == 2

    def test_sequential_partitions_allowed(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0}, {1, 2, 3}, 0.0, 5.0),
                  cut({0, 1}, {2, 3}, 5.0, 10.0))
        sim.run()

    def test_a_partition_holds_only_its_frames(self):
        sim, net, procs = plain_net()
        partition(sim, net, cut({0}, {1, 2, 3}, 0.0, 10.0, frames=("app",)))
        sim.schedule_at(1.0, lambda: net.send(0, 1, "a", kind="app"))
        sim.schedule_at(1.0, lambda: net.send(0, 1, "c", kind="ctl"))
        sim.run()
        assert [(p, t > 10.0) for t, p in procs[1].got] == [
            ("c", False), ("a", True)]


class TestTheorem1UnderPartitions:
    def test_round_converges_after_heal(self):
        """A checkpoint round starved by a partition finalizes after the
        heal — the paper's finite-but-arbitrary-delay model at its worst."""
        n, horizon = 6, 240.0
        sim = Simulator(seed=9)
        net = Network(sim, complete(n), UniformLatency(0.1, 0.5))
        st = StableStorage(sim)
        cfg = OptimisticConfig(checkpoint_interval=50.0, timeout=15.0,
                               state_bytes=50_000)
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=horizon)
        rt.build(make_workload("uniform", n, horizon, rate=1.5))
        # Partition straddling the first checkpoint rounds.
        partition(sim, net, cut({0, 1, 2}, {3, 4, 5}, start=40.0, end=120.0))
        rt.start()
        sim.run(max_events=3_000_000)
        assert sim.peek_time() is None
        assert all(h.status == "normal" for h in rt.hosts.values())
        assert len(rt.finalized_seqs()) >= 2
        assert rt.anomalies() == []
        rt.assert_consistent()
        # Something was actually held during the partition.
        assert sim.trace.count("msg.held") > 0
