"""Transport tests: one broker, in-process and real TCP workers."""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.live.transport import Broker, connect_tcp
from repro.live.wire import (SUPERVISOR, WIRE_VERSION, encode_frame,
                             hello_frame, recover_frame, stop_frame)


def run(coro):
    return asyncio.run(coro)


def app(src, dst, uid, size=16):
    """A complete app frame (the binary codec encodes every field)."""
    pb = {"v": WIRE_VERSION, "csn": 0, "stat": "normal", "tent_set": []}
    return {"t": "app", "src": src, "dst": dst, "uid": uid, "size": size,
            "pb": pb, "epoch": 0}


def route(broker, frame):
    """Hand the broker a frame the way a connection's reader does."""
    broker._route(encode_frame(frame))


#: uid of the marker frame :meth:`_RoutingCases.routed` bounces.
MARK = 99


class _RoutingCases:
    """What the router does for a worker, whichever way it attached.

    Each subclass runs every case over one kind of endpoint: the loss
    policy (park, replay, supersede, overflow, no route) exists once.
    """

    tcp: bool

    async def broker(self):
        broker = Broker()
        if self.tcp:
            await broker.start()
        self.gone = asyncio.Queue()
        broker.on_disconnect = self.gone.put_nowait
        return broker

    async def connect(self, broker, pid, incarnation=0):
        if self.tcp:
            return await connect_tcp(broker.port, pid, incarnation)
        return broker.endpoint(pid)

    async def pair(self, broker):
        a = await self.connect(broker, 0)
        b = await self.connect(broker, 1)
        await broker.wait_connected(2)
        return a, b

    async def routed(self, ep):
        """Return once the broker routed everything ``ep`` sent: per-sender
        FIFO, so a marker it sends itself comes back last."""
        ep.send(app(ep.pid, ep.pid, MARK))
        await ep.drain()
        assert (await asyncio.wait_for(ep.recv(), 5.0))["uid"] == MARK

    async def crash(self, ep):
        ep.close()
        assert await asyncio.wait_for(self.gone.get(), 5.0) == ep.pid

    async def close(self, broker, *endpoints):
        for ep in endpoints:
            ep.close()
        await broker.close()

    def test_route_to_dead_pid_counts_dropped(self):
        async def body():
            broker = await self.broker()
            a, b = await self.pair(broker)
            a.send(app(0, 7, 1))
            await self.routed(a)
            assert broker.dropped_by_cause == {"no_route": 1}
            await self.close(broker, a, b)

        run(body())

    def test_frame_addressed_to_the_supervisor_is_counted(self):
        # The broker has no reader for such frames: they take the same
        # path as any frame for a pid that never connected.
        async def body():
            broker = await self.broker()
            a, b = await self.pair(broker)
            a.send(app(0, SUPERVISOR, 3))
            a.send(app(0, 1, 4))
            await a.drain()
            # Per-sender FIFO: once uid 4 arrived, uid 3 was routed.
            assert (await asyncio.wait_for(b.recv(), 5.0))["uid"] == 4
            assert broker.dropped_by_cause == {"no_route": 1}
            assert broker._parked == {}
            await self.close(broker, a, b)

        run(body())

    def test_reconnect_window_frames_are_parked_and_replayed(self):
        async def body():
            broker = await self.broker()
            a, b = await self.pair(broker)
            await self.crash(b)
            # pid 1 is known (it connected before): park, don't drop.
            a.send(app(0, 1, 6))
            await self.routed(a)
            assert broker.dropped_by_cause == {}
            b2 = await self.connect(broker, 1, 1)
            frame = await asyncio.wait_for(b2.recv(), 5.0)
            assert frame == app(0, 1, 6)
            await self.close(broker, a, b2)

        run(body())

    def test_recover_broadcast_supersedes_parked_frames(self):
        async def body():
            broker = await self.broker()
            a, b = await self.pair(broker)
            await self.crash(b)
            a.send(app(0, 1, 6))
            a.send(app(0, 1, 7))
            await self.routed(a)
            # The execution those frames belonged to is being discarded.
            broker.broadcast(recover_frame(1, 0))
            assert broker.dropped_by_cause == {"superseded": 2}
            await self.close(broker, a)

        run(body())

    def test_park_overflow_counts_drops(self, monkeypatch):
        from repro.live import transport as transport_mod
        monkeypatch.setattr(transport_mod, "PARK_LIMIT", 2)

        async def body():
            broker = await self.broker()
            a, b = await self.pair(broker)
            await self.crash(b)
            for uid in range(4):
                a.send(app(0, 1, uid))
            await self.routed(a)
            assert broker.dropped_by_cause == {"park_overflow": 2}
            await self.close(broker, a)

        run(body())


class TestLocalTransport(_RoutingCases):
    """Workers on the broker's loop (``Broker.endpoint``)."""

    tcp = False

    def test_route_between_endpoints(self):
        async def body():
            broker = Broker()
            a, b = broker.endpoint(0), broker.endpoint(1)
            sent = app(0, 1, 7)
            a.send(sent)
            frame = await b.recv()
            # Decoded from the wire bytes: equal, never the sent object.
            assert frame == sent and frame is not sent
            await broker.close()

        run(body())

    def test_disconnect_drops_and_counts(self):
        async def body():
            broker = Broker()
            a, b = broker.endpoint(0), broker.endpoint(1)
            broker.disconnect(1)
            assert await b.recv() is None
            a.send(app(0, 1, 7))            # parks for pid 1 ...
            broker.epoch += 1
            broker.broadcast(recover_frame(broker.epoch, 0))
            assert broker.dropped_by_cause == {"superseded": 1}
            # ... and the reconnect is a fresh, empty queue.
            b2 = broker.endpoint(1)
            assert b2.epoch == 1
            broker.broadcast(stop_frame())
            assert (await b2.recv())["t"] == "stop"
            await broker.close()

        run(body())

    def test_broadcast_reaches_every_worker(self):
        async def body():
            broker = Broker()
            eps = [broker.endpoint(pid) for pid in range(3)]
            assert broker.connected_pids == [0, 1, 2]   # no handshake
            broker.broadcast(stop_frame())
            for ep in eps:
                assert (await ep.recv())["t"] == "stop"
            await broker.close()
            assert [await ep.recv() for ep in eps] == [None] * 3

        run(body())

    def test_closed_endpoint_stops_sending_and_receiving(self):
        async def body():
            broker = Broker()
            a, b = broker.endpoint(0), broker.endpoint(1)
            a.close()
            assert broker.connected_pids == [1]
            a.send(app(0, 1, 1))
            broker.broadcast(stop_frame())
            assert (await b.recv())["t"] == "stop"  # nothing ahead of it
            assert await a.recv() is None
            await broker.close()

        run(body())


class TestTcpTransport(_RoutingCases):
    """Worker processes' side: one socket each (``connect_tcp``)."""

    tcp = True

    def test_connect_route_and_broadcast(self):
        async def body():
            broker = Broker()
            port = await broker.start()
            a = await connect_tcp(port, 0, 0)
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(2)
            assert broker.connected_pids == [0, 1]
            assert a.epoch == 0

            a.send(app(0, 1, 9))
            await a.drain()
            frame = await asyncio.wait_for(b.recv(), 5.0)
            assert frame == app(0, 1, 9)

            broker.broadcast(stop_frame())
            assert (await asyncio.wait_for(a.recv(), 5.0))["t"] == "stop"
            assert (await asyncio.wait_for(b.recv(), 5.0))["t"] == "stop"
            await self.close(broker, a, b)

        run(body())

    def test_start_barrier_holds_welcomes_until_every_pid_connected(self):
        async def body():
            broker = Broker(barrier=2)
            port = await broker.start()
            first = asyncio.ensure_future(connect_tcp(port, 0, 0))

            async def hello_seen():
                while 0 not in broker._known_pids:
                    await asyncio.sleep(0.005)

            await asyncio.wait_for(hello_seen(), 5.0)
            await asyncio.sleep(0.05)
            assert not first.done() and broker.connected_pids == []
            b = await connect_tcp(port, 1, 0)
            a = await asyncio.wait_for(first, 5.0)
            assert broker.connected_pids == [0, 1]
            # Open from now on: a respawned worker is welcomed at once.
            b.close()
            b2 = await asyncio.wait_for(connect_tcp(port, 1, 1), 5.0)
            a.send(app(0, 1, 5))
            await a.drain()
            assert (await asyncio.wait_for(b2.recv(), 5.0))["uid"] == 5
            assert broker.dropped_by_cause == {}
            await self.close(broker, a, b2)

        run(body())

    def test_welcome_carries_current_epoch(self):
        async def body():
            broker = Broker(epoch=3)
            port = await broker.start()
            ep = await connect_tcp(port, 0, 1)
            assert ep.epoch == 3
            await self.close(broker, ep)

        run(body())

    def test_disconnect_callback_fires(self):
        async def body():
            broker = Broker()
            port = await broker.start()
            gone = asyncio.Queue()
            broker.on_disconnect = gone.put_nowait
            ep = await connect_tcp(port, 2, 0)
            await broker.wait_connected(1)
            ep.close()
            pid = await asyncio.wait_for(gone.get(), 5.0)
            assert pid == 2
            assert broker.connected_pids == []
            await broker.close()

        run(body())

    def test_handshake_version_mismatch_closes_connection(self):
        future = bytearray(encode_frame(hello_frame(0, 0)))
        future[4] = 99  # the payload's version byte
        # ... and a peer that speaks newline JSON instead of frames.
        text = b'{"t":"hello","v":2,"pid":0,"inc":0}\n'

        async def body(hello):
            broker = Broker()
            port = await broker.start()
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(hello)
            data = await asyncio.wait_for(reader.read(), 5.0)
            assert data == b""  # broker rejected us without a welcome
            assert broker.connected_pids == []
            writer.close()
            await broker.close()

        for hello in (bytes(future), text):
            run(body(hello))

    def test_frame_larger_than_64k_crosses_real_tcp(self):
        # StreamReader's 64 KiB line limit does not apply to
        # length-prefixed frames.
        async def body():
            broker = Broker()
            port = await broker.start()
            a = await connect_tcp(port, 0, 0)
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(2)
            big = app(0, 1, 9)
            big["pb"]["tent_set"] = list(range(20000))  # ~80 KiB payload
            a.send(big)
            await a.drain()
            frame = await asyncio.wait_for(b.recv(), 5.0)
            assert frame == big
            await self.close(broker, a, b)

        run(body())

    def test_wait_connected_times_out(self):
        async def body():
            broker = Broker()
            await broker.start()
            with pytest.raises(asyncio.TimeoutError):
                await broker.wait_connected(1, timeout=0.05)
            await broker.close()

        run(body())

    def test_failed_handshake_closes_its_socket(self):
        # A broker that hangs up before the welcome, on every attempt:
        # each attempt's socket is closed, not left to the collector.
        async def body():
            async def hang_up(reader, writer):
                await reader.read(1)
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            with pytest.raises(ConnectionError, match="2 attempt"):
                await connect_tcp(port, 0, 0, attempts=2, retry_delay=0.01)
            server.close()
            await server.wait_closed()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run(body())
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class _NullWriter:
    """The StreamWriter surface the broker's batcher uses, to nowhere."""

    def write(self, data):
        pass

    async def drain(self):
        pass

    def close(self):
        pass


class TestRespawnWait:
    """ROADMAP 1(f): a SIGKILLed worker's connection stays in the broker
    until its EOF is read; the supervisor's post-respawn wait must not be
    satisfied by it (1 crash run in ~50 read a 0.01 s recovery)."""

    def test_wait_needs_the_new_incarnations_hello(self):
        async def body():
            broker = Broker()               # in memory: never listens

            def connect(pid, incarnation):
                reader = asyncio.StreamReader()
                reader.feed_data(encode_frame(hello_frame(pid, incarnation)))
                task = asyncio.ensure_future(
                    broker._handle(reader, _NullWriter()))
                return reader, task

            r0, t0 = connect(0, 0)
            r1, t1 = connect(1, 0)
            await broker.wait_connected(2, timeout=5.0)
            # pid 1 is SIGKILLed and reaped; its EOF is NOT delivered.
            # Here the stale connection still satisfies a bare wait ...
            await broker.wait_connected(2, timeout=5.0)
            # ... so the supervisor drops it before respawning:
            broker.disconnect(1)
            assert broker.connected_pids == [0]
            waiter = asyncio.ensure_future(
                broker.wait_connected(2, timeout=5.0))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not waiter.done()
            r1b, t1b = connect(1, 1)        # the respawn's second hello
            await waiter
            assert broker.connected_pids == [0, 1]
            # The dead connection's late EOF must not evict incarnation 1.
            gone = []
            broker.on_disconnect = gone.append
            r1.feed_eof()
            await asyncio.wait_for(t1, 5.0)
            assert broker.connected_pids == [0, 1] and gone == []
            for reader in (r0, r1b):
                reader.feed_eof()
            await asyncio.wait_for(asyncio.gather(t0, t1b), 5.0)
            assert gone == [0, 1]

        run(body())

    def test_frames_for_a_dropped_pid_park_for_its_next_incarnation(self):
        async def body():
            broker = Broker()
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(hello_frame(1, 0)))
            task = asyncio.ensure_future(
                broker._handle(reader, _NullWriter()))
            await broker.wait_connected(1, timeout=5.0)
            broker.disconnect(1)
            route(broker, app(0, 1, 7))
            assert broker._parked[1] == [encode_frame(app(0, 1, 7))]
            assert broker.dropped_by_cause == {}
            broker.disconnect(1)            # idempotent
            reader.feed_eof()
            await asyncio.wait_for(task, 5.0)

        run(body())
