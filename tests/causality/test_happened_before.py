"""Unit tests for the happened-before event graph."""

from __future__ import annotations

import numpy as np

from repro.causality import EventGraph
from repro.des import SimProcess, Simulator, TraceRecorder
from repro.net import Network, UniformLatency, complete


def trace_with_messages() -> tuple[TraceRecorder, int]:
    """Hand-built trace: P0 sends to P1, P1 sends to P2."""
    t = TraceRecorder()
    t.record(1.0, "msg.send", 0, uid=1, dst=1, kind="app")
    t.record(2.0, "msg.deliver", 1, uid=1, src=0, kind="app")
    t.record(3.0, "msg.send", 1, uid=2, dst=2, kind="app")
    t.record(4.0, "msg.deliver", 2, uid=2, src=1, kind="app")
    t.record(5.0, "ckpt.tentative", 0, csn=1)
    return t, 3


class TestConstruction:
    def test_xo_and_m_edges(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        assert len(g) == 5
        relations = sorted(relation for _, _, relation in g.edges())
        assert relations == ["m", "m", "xo", "xo"]

    def test_ignores_non_event_kinds(self):
        t = TraceRecorder()
        t.record(1.0, "storage.write.start", 0)
        t.record(2.0, "msg.send", 0, uid=1, dst=1, kind="app")
        g = EventGraph(t, 2)
        assert len(g) == 1

    def test_ignores_records_without_process(self):
        t = TraceRecorder()
        t.record(1.0, "msg.send", -1, uid=1)
        assert len(EventGraph(t, 2)) == 0


class TestQueries:
    def test_transitive_happened_before(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        send0 = trace.records[0]
        deliver2 = trace.records[3]
        assert g.happened_before(send0, deliver2)
        assert not g.happened_before(deliver2, send0)

    def test_concurrent_events(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        deliver2 = trace.records[3]   # P2's receive
        ckpt0 = trace.records[4]      # P0's later checkpoint
        assert g.concurrent(deliver2, ckpt0)

    def test_event_not_before_itself(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        e = trace.records[0]
        assert not g.happened_before(e, e)
        assert not g.concurrent(e, e)

    def test_program_order_is_hb(self):
        t = TraceRecorder()
        t.record(1.0, "ckpt.tentative", 0, csn=1)
        t.record(2.0, "ckpt.finalize", 0, csn=1)
        g = EventGraph(t, 1)
        a, b = t.records
        assert g.happened_before(a, b)


class TestVectorClockAgreement:
    def test_vc_matches_reachability_on_hand_trace(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        assert g.check_vc_agrees() > 0

    def test_vc_matches_reachability_on_simulated_runs(self):
        class Chatter(SimProcess):
            def on_start(self):
                rng = self.sim.rng.stream(f"c{self.pid}")
                for _ in range(10):
                    self.set_timeout(float(rng.uniform(0.1, 30)),
                                     self._fire)

            def _fire(self):
                rng = self.sim.rng.stream(f"c{self.pid}")
                dst = int(rng.integers(0, self.network.n - 1))
                if dst >= self.pid:
                    dst += 1
                self.send(dst, "x")

            def on_message(self, msg):
                pass

        for seed in (1, 2, 3):
            sim = Simulator(seed=seed)
            net = Network(sim, complete(4), UniformLatency(0.1, 3.0))
            net.add_processes([Chatter(i, sim) for i in range(4)])
            net.start_all()
            sim.run()
            g = EventGraph(sim.trace, 4)
            checked = g.check_vc_agrees(
                sample=2000, rng=np.random.default_rng(0))
            assert checked > 0

    def test_vector_clock_of_receive_dominates_send(self):
        trace, n = trace_with_messages()
        g = EventGraph(trace, n)
        clocks = g.vector_clocks()
        send_seq = trace.records[0].seq
        recv_seq = trace.records[1].seq
        assert clocks[send_seq] < clocks[recv_seq]
