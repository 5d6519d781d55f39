"""Protocols over sparse physical topologies.

The paper's algorithm only needs transitive knowledge spread, so it should
run unchanged over rings, lines and random graphs (the network routes
non-adjacent sends along shortest paths).  These tests pin that property —
and that every protocol remains *consistent* — across topologies.
"""

from __future__ import annotations

import pytest

from repro.causality import ConsistencyVerifier
from repro.core import OptimisticConfig, OptimisticRuntime
from repro.des import Simulator
from repro.net import (
    Network,
    UniformLatency,
    line,
    random_connected,
    ring,
    star,
)
from repro.storage import StableStorage
from repro.workload import make as make_workload

TOPOLOGIES = {
    "ring": lambda n: ring(n),
    "line": lambda n: line(n),
    "star": lambda n: star(n),
    "random": lambda n: random_connected(n, 0.3, seed=1),
}


def run_optimistic(topo_name: str, n=6, seed=4, horizon=200.0):
    sim = Simulator(seed=seed)
    net = Network(sim, TOPOLOGIES[topo_name](n), UniformLatency(0.1, 0.6))
    st = StableStorage(sim)
    cfg = OptimisticConfig(checkpoint_interval=45.0, timeout=15.0,
                           state_bytes=50_000)
    rt = OptimisticRuntime(sim, net, st, cfg, horizon=horizon)
    rt.build(make_workload("uniform", n, horizon, rate=1.5))
    rt.start()
    sim.run(max_events=2_000_000)
    assert sim.peek_time() is None
    return sim, rt


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
class TestOptimisticOnSparseTopologies:
    def test_converges_and_consistent(self, topo):
        sim, rt = run_optimistic(topo)
        assert len(rt.finalized_seqs()) >= 3
        assert all(h.status == "normal" for h in rt.hosts.values())
        assert rt.anomalies() == []
        rt.assert_consistent()

    def test_multi_hop_sends_really_routed(self, topo):
        sim, rt = run_optimistic(topo)
        # On a line/ring with 6 nodes some pairs are non-adjacent; their
        # deliveries took multiple hop latencies (> max single-hop 0.6).
        if topo in ("line", "ring"):
            deliver_times = {}
            send_times = {}
            for rec in sim.trace.filter("msg.send"):
                send_times[rec.data["uid"]] = rec.time
            for rec in sim.trace.filter("msg.deliver"):
                deliver_times[rec.data["uid"]] = rec.time
            latencies = [deliver_times[u] - send_times[u]
                         for u in deliver_times]
            assert max(latencies) > 0.6


class TestChandyLamportOnRing:
    def test_virtual_fifo_channels_keep_snapshots_consistent(self):
        """Markers over routed paths are still FIFO per (src, dst) pair,
        so the snapshots remain consistent on sparse physical topologies."""
        from repro.baselines import ChandyLamportRuntime

        sim = Simulator(seed=2)
        net = Network(sim, ring(5), UniformLatency(0.1, 0.6), fifo=True)
        st = StableStorage(sim)
        rt = ChandyLamportRuntime(sim, net, st, interval=40.0,
                                  state_bytes=50_000, horizon=150.0)
        rt.build(make_workload("uniform", 5, 150.0, rate=1.5))
        rt.start()
        sim.run(max_events=2_000_000)
        assert len(rt.global_records()) >= 2
        results = ConsistencyVerifier(sim.trace).verify_all(
            rt.global_records())
        assert all(not o for o in results.values())


class TestHeterogeneousStateSizes:
    def test_callable_state_bytes(self):
        sim = Simulator(seed=6)
        net = Network(sim, ring(4), UniformLatency(0.1, 0.5))
        st = StableStorage(sim)
        cfg = OptimisticConfig(
            checkpoint_interval=40.0, timeout=12.0,
            state_bytes=lambda pid: 10_000 * (pid + 1))
        rt = OptimisticRuntime(sim, net, st, cfg, horizon=120.0)
        rt.build(make_workload("uniform", 4, 120.0, rate=2.0))
        rt.start()
        sim.run(max_events=1_000_000)
        for pid, host in rt.hosts.items():
            for ct in host.tentatives.values():
                assert ct.state_bytes == 10_000 * (pid + 1)
        rt.assert_consistent()
