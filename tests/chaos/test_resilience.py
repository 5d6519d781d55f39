"""Retry/ack/dedup transport layer: loss heals, duplicates collapse."""

from __future__ import annotations

import asyncio

from repro.core.types import ControlMessage, ControlType, Piggyback, Status
from repro.live.resilience import ResilienceConfig, ResilientEndpoint
from repro.live.transport import Broker, Endpoint
from repro.live.wire import SUPERVISOR, ack_frame, app_frame, ctl_frame, stop_frame


def run(coro):
    return asyncio.run(coro)


def fast_config(**kw) -> ResilienceConfig:
    kw.setdefault("base_delay", 0.01)
    kw.setdefault("max_delay", 0.02)
    kw.setdefault("jitter", 0.0)
    return ResilienceConfig(**kw)


def app(src: int, dst: int, uid: int) -> dict:
    return app_frame(src, dst, uid, 16,
                     Piggyback(0, Status.NORMAL, frozenset()), epoch=0)


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
    while ep._pending and loop.time() < deadline:
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
            assert a._pending == {}
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
            a.send(ack_frame(0, 1, 5))                # unreliable kind
            assert a._pending == {} and a.stats.sent == 0
            assert await b.recv() == ack_frame(0, 1, 5)   # not re-stamped
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
            assert a._pending == {}

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
            assert a._pending == {}

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
            assert a._pending == {}

        run(body())

    def test_close_cancels_outstanding_retransmissions(self):
        async def body():
            t = Broker()
            lossy = LossyEndpoint(t.endpoint(0), losses=10**9)
            a = ResilientEndpoint(lossy, fast_config())
            a.send(app(0, 1, 1))
            a.close()
            await asyncio.sleep(0.05)
            assert a.stats.give_ups == 0 and a._pending == {}

        run(body())


class TestDedup:
    def test_duplicate_rs_dropped_but_still_acked(self):
        async def body():
            t = Broker()
            a = ResilientEndpoint(t.endpoint(0), fast_config())
            b = ResilientEndpoint(t.endpoint(1), fast_config())
            a.send(app(0, 1, 4))
            sent = next(iter(a._pending.values()))[0]
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
            rs = set(a0._pending) | set(a1._pending)
            assert len(rs) == 2
            a0.close()
            a1.close()

        run(body())
