"""Retry/ack/dedup transport layer: loss heals, duplicates collapse."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.types import ControlMessage, ControlType, Piggyback, Status
from repro.live.resilience import (
    ResilienceConfig,
    ResilientEndpoint,
    rto,
    rtt_sample,
)
from repro.live.transport import Broker, Endpoint
from repro.live.wire import SUPERVISOR, ack_frame, app_frame, ctl_frame, stop_frame


def run(coro):
    return asyncio.run(coro)


def fast_config(**kw) -> ResilienceConfig:
    kw.setdefault("base_delay", 0.01)
    kw.setdefault("max_delay", 0.02)
    return ResilienceConfig(**kw)


def app(src: int, dst: int, uid: int) -> dict:
    return app_frame(src, dst, uid, 16,
                     Piggyback(0, Status.NORMAL, frozenset()), epoch=0)


def pending(ep: ResilientEndpoint) -> dict:
    """Every unacked frame of ``ep``, by rs, over all destinations."""
    return {rs: entry for peer in ep._peers.values()
            for rs, entry in peer.pending.items()}


class LossyEndpoint(Endpoint):
    """Endpoint dropping the first ``losses`` reliable sends."""

    def __init__(self, inner, losses: int) -> None:
        self.inner = inner
        self.pid = inner.pid
        self.losses = losses

    def send(self, frame):
        if frame.get("t") == "app" and self.losses > 0:
            self.losses -= 1
            return
        self.inner.send(frame)

    async def recv(self):
        return await self.inner.recv()

    async def drain(self):
        await self.inner.drain()

    def close(self):
        self.inner.close()


async def settle(ep: ResilientEndpoint, timeout: float = 2.0) -> None:
    """Pump ``recv`` in the background until every send is acked."""
    task = asyncio.ensure_future(ep.recv())
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while pending(ep) and loop.time() < deadline:
        await asyncio.sleep(0.005)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


class TestHappyPath:
    def test_reliable_frame_gets_rs_and_ack_settles_it(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            a.send(app(0, 1, 7))
            frame = await asyncio.wait_for(b.recv(), 1.0)
            assert frame["uid"] == 7 and "rs" in frame
            assert b.stats.acks_sent == 1
            await settle(a)
            assert pending(a) == {}
            assert a.stats.acks_received == 1
            assert a.stats.retries == 0

        run(body())

    def test_supervisor_and_nonreliable_frames_pass_through(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            b = t.endpoint(1)
            cm = ControlMessage(ControlType.CK_END, 1)
            a.send(ctl_frame(0, SUPERVISOR, cm, 0))   # supervisor-bound
            a.send(ack_frame(0, 1, [5]))              # unreliable kind
            assert a._peers == {} and a.stats.sent == 0
            assert await b.recv() == ack_frame(0, 1, [5])  # not re-stamped
            assert t.dropped_by_cause == {"no_route": 1}

        run(body())

    def test_disabled_layer_is_a_passthrough(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0),
                                  fast_config(enabled=False))
            b = t.endpoint(1)
            a.send(app(0, 1, 1))
            frame = await b.recv()
            assert "rs" not in frame
            assert pending(a) == {}

        run(body())


class TestLossRecovery:
    def test_dropped_frame_is_retransmitted_until_delivered(self):
        async def body():
            t = Broker()
            lossy = LossyEndpoint(t.endpoint(0), losses=2)
            a = ResilientEndpoint(lossy, fast_config())
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            a.send(app(0, 1, 9))
            frame = await asyncio.wait_for(b.recv(), 2.0)
            assert frame["uid"] == 9
            assert a.stats.retries >= 2
            await settle(a)
            assert pending(a) == {}

        run(body())

    def test_gives_up_after_max_retries(self):
        async def body():
            t = Broker()
            lossy = LossyEndpoint(t.endpoint(0), losses=10**9)
            a = ResilientEndpoint(lossy, fast_config(max_retries=2))
            a.send(app(0, 1, 1))
            deadline = asyncio.get_event_loop().time() + 2.0
            while (a.stats.give_ups == 0
                   and asyncio.get_event_loop().time() < deadline):
                await asyncio.sleep(0.01)
            assert a.stats.give_ups == 1
            assert a.stats.retries == 2
            assert pending(a) == {}

        run(body())

    def test_close_cancels_outstanding_retransmissions(self):
        async def body():
            t = Broker()
            lossy = LossyEndpoint(t.endpoint(0), losses=10**9)
            a = ResilientEndpoint(lossy, fast_config())
            a.send(app(0, 1, 1))
            a.close()
            await asyncio.sleep(0.05)
            assert a.stats.give_ups == 0 and pending(a) == {}

        run(body())


class TestDedup:
    def test_duplicate_rs_dropped_but_still_acked(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            a.send(app(0, 1, 4))
            sent = next(iter(pending(a).values()))[0]
            frame = await asyncio.wait_for(b.recv(), 1.0)
            assert frame["uid"] == 4
            # A retransmitted copy arrives after delivery: acked, dropped.
            a.inner.send(dict(sent))
            t.broadcast(stop_frame())
            tail = await asyncio.wait_for(b.recv(), 1.0)
            assert tail["t"] == "stop"
            assert b.stats.dup_dropped == 1
            assert b.stats.acks_sent == 2

        run(body())

    def test_rs_namespace_distinct_across_incarnations(self):
        async def body():
            t = Broker()
            a0 = ResilientEndpoint(t.endpoint(0), fast_config(),
                                   incarnation=0)
            a1 = ResilientEndpoint(t.endpoint(0), fast_config(),
                                   incarnation=1)
            a0.send(app(0, 1, 1))
            a1.send(app(0, 1, 1))
            rs = set(pending(a0)) | set(pending(a1))
            assert len(rs) == 2
            a0.close()
            a1.close()

        run(body())


class Recorder(Endpoint):
    """Passes frames through and records every one sent."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.pid = inner.pid
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)
        self.inner.send(frame)

    async def recv(self):
        return await self.inner.recv()

    def close(self):
        self.inner.close()


class TestRtoEstimator:
    def test_first_sample_sets_srtt_and_half_of_it_as_rttvar(self):
        assert rtt_sample(None, 0.2) == (0.2, 0.1)

    def test_later_samples_move_an_eighth_and_a_quarter(self):
        srtt, rttvar = rtt_sample((0.2, 0.1), 0.1)
        assert srtt == pytest.approx(0.2 + (0.1 - 0.2) / 8)
        assert rttvar == pytest.approx(0.1 + (0.1 - 0.1) / 4)
        srtt, rttvar = rtt_sample((0.1, 0.0), 0.5)
        assert srtt == pytest.approx(0.15)
        assert rttvar == pytest.approx(0.1)

    def test_timeout_is_srtt_plus_four_rttvar(self):
        assert rto((0.1, 0.02), 0.05, 1.0) == pytest.approx(0.18)

    def test_floor_before_any_sample_and_clamp(self):
        assert rto(None, 0.05, 1.0) == 0.05
        assert rto((0.001, 0.001), 0.05, 1.0) == 0.05     # floor
        assert rto((0.5, 0.5), 0.05, 1.0) == 1.0          # ceiling

    def test_backoff_doubles_per_attempt_up_to_the_ceiling(self):
        assert [rto(None, 0.05, 1.0, k) for k in range(6)] == \
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
        assert rto((0.1, 0.0), 0.05, 1.0, 2) == pytest.approx(0.4)


class _Sink(Endpoint):
    """An endpoint that swallows every frame (nothing is ever acked)."""

    pid = 0

    def __init__(self) -> None:
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)

    def close(self):
        pass


class TestKarn:
    def test_ack_of_a_first_transmission_is_sampled(self):
        async def body():
            a = ResilientEndpoint(_Sink(), fast_config())
            a.send(app(0, 1, 1))
            (rs, entry), = pending(a).items()
            entry[2] -= 0.004               # sent 4 ms ago
            a._settle(1, [rs])
            srtt, _ = a._peers[1].rtt
            assert srtt == pytest.approx(0.004, abs=1e-3)
            assert a._peers[1].timer is None
            a.close()

        run(body())

    def test_one_ack_is_one_sample_from_its_oldest_first_transmission(self):
        async def body():
            a = ResilientEndpoint(_Sink(), fast_config(base_delay=1.0,
                                                       max_delay=8.0))
            for uid in (1, 2, 3):
                a.send(app(0, 1, uid))
            (rs1, e1), (rs2, e2), (rs3, e3) = pending(a).items()
            e1[1] = 1                       # retransmitted: not a sample
            e1[2] -= 0.009
            e2[2] -= 0.006
            e3[2] -= 0.002
            a._settle(1, [rs3, rs1, rs2])
            srtt, rttvar = a._peers[1].rtt
            assert srtt == pytest.approx(0.006, abs=1e-3)
            assert rttvar == pytest.approx(srtt / 2)
            a.close()

        run(body())

    def test_ack_of_a_retransmitted_frame_is_not_sampled(self):
        async def body():
            inner = _Sink()
            a = ResilientEndpoint(inner, fast_config(base_delay=1.0,
                                                     max_delay=8.0))
            a.send(app(0, 1, 1))
            (rs, entry), = pending(a).items()
            entry[2] -= 1.5                 # its timeout has passed
            a._expire(1)
            assert a.stats.retries == 1 and len(inner.sent) == 2
            assert entry[1] == 1
            # The retransmission is now due two timeouts out, not one.
            due = a._peers[1].timer.when() - a._loop.time()
            assert 1.5 < due <= 2.0
            a._settle(1, [rs])
            assert a._peers[1].rtt is None
            assert a.stats.acks_received == 1
            a.close()

        run(body())


class TestCoalescedAcks:
    def test_k_frames_in_one_pass_are_one_ack_frame_per_sender(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            c = ResilientEndpoint(t.endpoint(2), fast_config())
            wire = Recorder(t.endpoint(1))
            b = ResilientEndpoint(wire, fast_config())
            for uid in range(1, 6):
                a.send(app(0, 1, uid))
                c.send(app(2, 1, 100 + uid))
            # Ten queued frames: ten recv calls, none of which suspends.
            got = [await b.recv() for _ in range(10)]
            assert len(got) == 10 and wire.sent == []
            await asyncio.sleep(0)          # the end of the pass
            acks = sorted(((f["dst"], f["rs"]) for f in wire.sent))
            assert [dst for dst, _ in acks] == [0, 2]
            assert acks[0][1] == [f["rs"] for f in got if f["src"] == 0]
            assert acks[1][1] == [f["rs"] for f in got if f["src"] == 2]
            assert b.stats.ack_frames == 2 and b.stats.acks_sent == 10
            for ep in (a, b, c):
                ep.close()

        run(body())

    def test_duplicate_and_stale_epoch_frames_are_acked(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            wire = Recorder(t.endpoint(1))
            b = ResilientEndpoint(wire, fast_config())
            a.send(app(0, 1, 1))
            first = await b.recv()
            stale = dict(app(0, 1, 2), rs=first["rs"] + 1, epoch=0)
            a.inner.send(dict(first))       # a duplicate
            a.inner.send(stale)             # from a discarded execution
            assert await b.recv() == stale  # the host drops it, not b
            assert b.stats.dup_dropped == 1
            await asyncio.sleep(0)
            acked = [rs for f in wire.sent for rs in f["rs"]]
            assert acked == [first["rs"], first["rs"], stale["rs"]]
            for ep in (a, b):
                ep.close()

        run(body())

    def test_drain_flushes_the_pass_acks(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            wire = Recorder(t.endpoint(1))
            b = ResilientEndpoint(wire, fast_config())
            a.send(app(0, 1, 1))
            await b.recv()
            await b.drain()
            assert [f["t"] for f in wire.sent] == ["ack"]
            for ep in (a, b):
                ep.close()

        run(body())

    def test_clean_stop_leaves_no_peer_retransmitting(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            for uid in range(1, 4):
                a.send(app(0, 1, uid))
            for _ in range(3):
                await b.recv()
            b.close()                       # flushes the acks it owes
            t.broadcast(stop_frame())
            assert (await a.recv())["t"] == "stop"
            assert pending(a) == {} and a._peers[1].timer is None
            assert a.stats.retries == 0 and a.stats.acks_received == 3
            a.close()

        run(body())


class TestSendWindow:
    def test_drain_at_the_window_waits_for_an_ack(self, monkeypatch):
        from repro.live import resilience
        monkeypatch.setattr(resilience, "SEND_WINDOW", 2)

        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config(base_delay=5.0,
                                                             max_delay=5.0))
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            receiving = asyncio.ensure_future(a.recv())
            await asyncio.sleep(0)
            a.send(app(0, 1, 1))
            a.send(app(0, 1, 2))
            drained = asyncio.ensure_future(a.drain())
            await asyncio.sleep(0)
            assert not drained.done()       # two unacked: at the window
            await b.recv()
            await b.recv()
            await asyncio.wait_for(drained, 1.0)    # b's ack let it go
            assert pending(a) == {}
            receiving.cancel()
            for ep in (a, b):
                ep.close()

        run(body())

    def test_drain_never_waits_without_a_receive(self, monkeypatch):
        from repro.live import resilience
        monkeypatch.setattr(resilience, "SEND_WINDOW", 1)

        async def body():
            a = ResilientEndpoint(_Sink(), fast_config(base_delay=5.0,
                                                       max_delay=5.0))
            a.send(app(0, 1, 1))
            await asyncio.wait_for(a.drain(), 1.0)   # a stopped host
            a.close()

        run(body())
