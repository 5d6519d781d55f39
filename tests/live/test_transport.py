"""Transport backend tests: queue pairs and real TCP sockets."""

from __future__ import annotations

import asyncio

import pytest

from repro.live.transport import LocalTransport, TcpBroker, connect_tcp
from repro.live.wire import (SUPERVISOR, WIRE_VERSION, encode_frame,
                             encode_payload, hello_frame, recover_frame,
                             stop_frame)


def run(coro):
    return asyncio.run(coro)


def app(src, dst, uid, size=16):
    """A complete app frame (the binary codec encodes every field)."""
    pb = {"v": WIRE_VERSION, "csn": 0, "stat": "normal", "tent_set": []}
    return {"t": "app", "src": src, "dst": dst, "uid": uid, "size": size,
            "pb": pb, "epoch": 0}


def route(broker, frame):
    """Hand the broker a frame the way a connection's reader does."""
    broker._route_payload(frame["dst"], encode_payload(frame))


class TestLocalTransport:
    def test_route_between_endpoints(self):
        async def body():
            t = LocalTransport(2)
            a, b = t.endpoint(0), t.endpoint(1)
            a.send({"t": "app", "src": 0, "dst": 1, "uid": 7})
            frame = await b.recv()
            assert frame["uid"] == 7

        run(body())

    def test_disconnect_drops_and_counts(self):
        async def body():
            t = LocalTransport(2)
            a = t.endpoint(0)
            t.disconnect(1)
            a.send({"t": "app", "src": 0, "dst": 1, "uid": 7})
            assert t.dropped == 1
            # Reconnect gives a fresh, empty queue.
            b = t.endpoint(1)
            t.inject(1, stop_frame())
            assert (await b.recv())["t"] == "stop"

        run(body())

    def test_broadcast_reaches_every_worker(self):
        async def body():
            t = LocalTransport(3)
            eps = [t.endpoint(pid) for pid in range(3)]
            t.broadcast(stop_frame())
            for ep in eps:
                assert (await ep.recv())["t"] == "stop"

        run(body())

    def test_closed_endpoint_stops_sending_and_receiving(self):
        async def body():
            t = LocalTransport(2)
            a = t.endpoint(0)
            a.close()
            a.send({"t": "app", "src": 0, "dst": 1, "uid": 1})
            assert t._queues[1].empty()
            assert await a.recv() is None

        run(body())


class TestTcpTransport:
    def test_connect_route_and_broadcast(self):
        async def body():
            broker = TcpBroker()
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
            await broker.close()

        run(body())

    def test_welcome_carries_current_epoch(self):
        async def body():
            broker = TcpBroker(epoch=3)
            port = await broker.start()
            ep = await connect_tcp(port, 0, 1)
            assert ep.epoch == 3
            await broker.close()

        run(body())

    def test_disconnect_callback_fires(self):
        async def body():
            broker = TcpBroker()
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

    def test_route_to_dead_pid_counts_dropped(self):
        async def body():
            broker = TcpBroker()
            await broker.start()
            route(broker, app(0, 7, 1))
            assert broker.dropped == 1
            assert broker.dropped_by_cause == {"no_route": 1}
            await broker.close()

        run(body())

    def test_frame_addressed_to_the_supervisor_is_counted(self):
        # The broker has no reader for such frames: they take the same
        # path as any frame for a pid that never connected.
        async def body():
            broker = TcpBroker()
            port = await broker.start()
            a = await connect_tcp(port, 0, 0)
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(2)
            a.send(app(0, SUPERVISOR, 3))
            a.send(app(0, 1, 4))
            await a.drain()
            # Per-sender FIFO: once uid 4 arrived, uid 3 was routed.
            assert (await asyncio.wait_for(b.recv(), 5.0))["uid"] == 4
            assert broker.dropped_by_cause == {"no_route": 1}
            assert broker._parked == {}
            await broker.close()

        run(body())

    def test_handshake_version_mismatch_closes_connection(self):
        future = bytearray(encode_frame(hello_frame(0, 0)))
        future[4] = 99  # the payload's version byte
        # ... and a peer that speaks newline JSON instead of frames.
        text = b'{"t":"hello","v":2,"pid":0,"inc":0}\n'

        async def body(hello):
            broker = TcpBroker()
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
            broker = TcpBroker()
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
            await broker.close()

        run(body())

    def test_reconnect_window_frames_are_parked_and_replayed(self):
        async def body():
            broker = TcpBroker()
            port = await broker.start()
            gone = asyncio.Queue()
            broker.on_disconnect = gone.put_nowait
            a = await connect_tcp(port, 0, 0)
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(2)
            b.close()
            await asyncio.wait_for(gone.get(), 5.0)
            # pid 1 is known (it connected before): park, don't drop.
            route(broker, app(0, 1, 6))
            assert broker.dropped == 0
            b2 = await connect_tcp(port, 1, 1)
            frame = await asyncio.wait_for(b2.recv(), 5.0)
            assert frame == app(0, 1, 6)
            a.close()
            b2.close()
            await broker.close()

        run(body())

    def test_recover_broadcast_supersedes_parked_frames(self):
        async def body():
            broker = TcpBroker()
            port = await broker.start()
            gone = asyncio.Queue()
            broker.on_disconnect = gone.put_nowait
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(1)
            b.close()
            await asyncio.wait_for(gone.get(), 5.0)
            route(broker, app(0, 1, 6))
            route(broker, app(0, 1, 7))
            # The execution those frames belonged to is being discarded.
            broker.broadcast(recover_frame(1, 0))
            assert broker.dropped == 2
            assert broker.dropped_by_cause == {"superseded": 2}
            await broker.close()

        run(body())

    def test_park_overflow_counts_drops(self, monkeypatch):
        from repro.live import transport as transport_mod
        monkeypatch.setattr(transport_mod, "PARK_LIMIT", 2)

        async def body():
            broker = TcpBroker()
            port = await broker.start()
            gone = asyncio.Queue()
            broker.on_disconnect = gone.put_nowait
            b = await connect_tcp(port, 1, 0)
            await broker.wait_connected(1)
            b.close()
            await asyncio.wait_for(gone.get(), 5.0)
            for uid in range(4):
                route(broker, app(0, 1, uid))
            assert broker.dropped == 2
            assert broker.dropped_by_cause == {"park_overflow": 2}
            await broker.close()

        run(body())

    def test_wait_connected_times_out(self):
        async def body():
            broker = TcpBroker()
            await broker.start()
            with pytest.raises(asyncio.TimeoutError):
                await broker.wait_connected(1, timeout=0.05)
            await broker.close()

        run(body())


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
            broker = TcpBroker()            # in memory: never listens

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
            broker = TcpBroker()
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(hello_frame(1, 0)))
            task = asyncio.ensure_future(
                broker._handle(reader, _NullWriter()))
            await broker.wait_connected(1, timeout=5.0)
            broker.disconnect(1)
            route(broker, app(0, 1, 7))
            assert broker._parked[1] == [app(0, 1, 7)]
            assert broker.dropped == 0
            broker.disconnect(1)            # idempotent
            reader.feed_eof()
            await asyncio.wait_for(task, 5.0)

        run(body())
