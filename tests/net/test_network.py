"""Unit tests for Network: delivery, FIFO/non-FIFO, routing, counters."""

from __future__ import annotations

import pytest

from repro.des import SimProcess, Simulator
from repro.net import (
    ConstantLatency,
    Network,
    UniformLatency,
    complete,
    line,
)


class Sink(SimProcess):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.got = []

    def on_message(self, msg):
        self.got.append(msg)


def build(n=3, latency=None, fifo=False, topo=None):
    sim = Simulator(seed=5)
    net = Network(sim, topo if topo is not None else complete(n),
                  latency if latency is not None else ConstantLatency(1.0),
                  fifo=fifo)
    procs = [Sink(i, sim) for i in range(n)]
    net.add_processes(procs)
    return sim, net, procs


class TestBasics:
    def test_delivery_carries_payload_and_times(self):
        sim, net, procs = build()
        msg = net.send(0, 1, {"x": 1}, size=64)
        sim.run()
        assert procs[1].got == [msg]
        assert msg.send_time == 0.0 and msg.deliver_time == 1.0
        assert msg.delivered

    def test_send_to_self_rejected(self):
        sim, net, _ = build()
        with pytest.raises(ValueError):
            net.send(1, 1, "x")

    def test_unknown_destination_rejected(self):
        sim, net, _ = build()
        with pytest.raises(ValueError):
            net.send(0, 9, "x")

    def test_duplicate_pid_rejected(self):
        sim, net, _ = build()
        with pytest.raises(ValueError):
            net.add_process(Sink(0, sim))

    def test_pid_outside_topology_rejected(self):
        sim = Simulator()
        net = Network(sim, complete(2), ConstantLatency(1.0))
        with pytest.raises(ValueError):
            net.add_process(Sink(5, sim))

    def test_broadcast_reaches_everyone_else(self):
        sim, net, procs = build(n=4)
        msgs = net.broadcast(1, "hi")
        sim.run()
        assert len(msgs) == 3
        assert [len(p.got) for p in procs] == [1, 0, 1, 1]

    def test_n_constructor_builds_complete_graph(self):
        sim = Simulator()
        net = Network(sim, n=3)
        assert net.topology.n == 3

    def test_requires_topology_or_n(self):
        with pytest.raises(ValueError):
            Network(Simulator())


class TestOrdering:
    def test_non_fifo_can_reorder(self):
        # With wide uniform latency, some pair of consecutive messages on
        # one channel must eventually arrive out of order.
        sim, net, procs = build(latency=UniformLatency(0.1, 5.0))
        msgs = [net.send(0, 1, i) for i in range(50)]
        sim.run()
        order = [m.payload for m in procs[1].got]
        assert sorted(order) == list(range(50))
        assert order != list(range(50)), "non-FIFO channel never reordered"

    def test_fifo_preserves_order(self):
        sim, net, procs = build(latency=UniformLatency(0.1, 5.0), fifo=True)
        for i in range(50):
            net.send(0, 1, i)
        sim.run()
        assert [m.payload for m in procs[1].got] == list(range(50))

    def test_fifo_is_per_channel(self):
        sim, net, procs = build(n=3, latency=UniformLatency(0.1, 5.0),
                                fifo=True)
        for i in range(20):
            net.send(0, 2, ("a", i))
            net.send(1, 2, ("b", i))
        sim.run()
        got = [m.payload for m in procs[2].got]
        a_order = [i for tag, i in got if tag == "a"]
        b_order = [i for tag, i in got if tag == "b"]
        assert a_order == list(range(20)) and b_order == list(range(20))


class TestRouting:
    def test_non_adjacent_send_routes_with_summed_latency(self):
        sim, net, procs = build(n=4, topo=line(4))
        net.send(0, 3, "far")
        sim.run()
        # 3 hops at 1s each on the line 0-1-2-3.
        assert procs[3].got[0].deliver_time == pytest.approx(3.0)

    def test_adjacent_send_single_hop(self):
        sim, net, procs = build(n=4, topo=line(4))
        net.send(0, 1, "near")
        sim.run()
        assert procs[1].got[0].deliver_time == pytest.approx(1.0)


class TestCountersAndGate:
    def test_counters_by_kind(self):
        sim, net, procs = build()
        net.send(0, 1, "a", size=100, kind="app", overhead_bytes=9)
        net.send(0, 2, "b", size=0, kind="ctl", overhead_bytes=8)
        sim.run()
        assert net.total_sent() == 2
        assert net.total_sent("app") == 1
        assert net.total_bytes("app") == 109
        assert net.total_overhead_bytes("app") == 9
        assert net.total_bytes("ctl") == 8
        assert net.delivered_by_kind == {"app": 1, "ctl": 1}

    def test_delivery_gate_drops(self):
        sim, net, procs = build()
        net.gates.append(lambda msg: "blocked" if msg.dst == 1 else None)
        net.send(0, 1, "blocked")
        net.send(0, 2, "ok")
        sim.run()
        assert procs[1].got == [] and len(procs[2].got) == 1
        assert sim.trace.count("msg.drop") == 1
        assert net.dropped_by_cause() == {"blocked": 1}

    def test_gates_are_asked_in_order_until_one_refuses(self):
        sim, net, procs = build()
        asked = []

        def gate(name, refuse):
            def ask(msg):
                asked.append((name, msg.payload))
                return name if msg.payload in refuse else None
            return ask

        net.gates += [gate("first", {"x"}), gate("second", {"y"})]
        net.send(0, 1, "x")
        sim.run()
        net.send(0, 1, "y")
        sim.run()
        net.send(0, 1, "z")
        sim.run()
        assert asked == [("first", "x"), ("first", "y"), ("second", "y"),
                         ("first", "z"), ("second", "z")]
        assert net.dropped_by_cause() == {"first": 1, "second": 1}
        assert [m.payload for m in procs[1].got] == ["z"]

    def test_a_halted_receiver_is_a_crashed_drop(self):
        sim, net, procs = build()
        procs[1].halted = True
        m = net.send(0, 1, "x", kind="app")
        sim.run()
        assert procs[1].got == [] and procs[1].delivered_count == 0
        assert net.delivered_by_kind == {}
        assert net.dropped_by_cause() == {"crashed": 1}
        assert net.in_flight() == 0
        drop = sim.trace.first("msg.drop")
        assert drop.process == 1 and drop.data["uid"] == m.uid
        assert drop.data["cause"] == "crashed"
        assert sim.trace.count("msg.deliver") == 0

    def test_a_copy_to_a_halted_receiver_counts_nothing(self):
        sim, net, procs = build()
        m = net.send(0, 1, "x")
        sim.run()
        procs[1].halted = True
        net.redeliver(m, 1.0, copy=True)
        sim.run()
        assert [g.payload for g in procs[1].got] == ["x"]
        assert net.dropped_by_cause() == {}
        assert net.delivered_by_kind == {"app": 1}
        assert net.channel(0, 1).stats.in_flight == 0
        assert sim.trace.count("msg.drop") == 0

    def test_in_flight_tracks_outstanding(self):
        sim, net, procs = build()
        net.send(0, 1, "x")
        assert net.in_flight() == 1
        sim.run()
        assert net.in_flight() == 0

    def test_trace_records_send_and_deliver(self):
        sim, net, procs = build()
        m = net.send(0, 1, "x", kind="app")
        sim.run()
        send = sim.trace.first("msg.send")
        deliver = sim.trace.first("msg.deliver")
        assert send.process == 0 and send.data["uid"] == m.uid
        assert deliver.process == 1 and deliver.data["kind"] == "app"

    def test_channel_stats(self):
        sim, net, procs = build()
        net.send(0, 1, "x", size=10)
        net.send(0, 1, "y", size=20)
        sim.run()
        ch = net.channel(0, 1)
        assert ch.stats.messages == 2
        assert ch.stats.delivered == 2
        assert ch.stats.bytes == 30
        assert ch.stats.in_flight == 0
