"""Live transports: one broker, in-process and TCP workers.

An :class:`Endpoint` is what a :class:`~repro.live.host.LiveHost` holds:
``send(frame)`` is synchronous (a push into a buffer, never blocks the
protocol), ``recv()`` is an awaitable that yields the next inbound frame
or ``None`` once the connection is closed.

Every frame crosses one router, the supervisor-owned :class:`Broker`, as
:mod:`repro.live.wire` bytes: encoded at the sender, routed by the
frame's ``dst`` field (a hub topology: N connections instead of N²),
decoded at the receiver.  A TCP reader, the broker's or a worker's, cuts
every complete frame out of one socket read
(:class:`~repro.live.wire.FrameSplitter`), and the broker forwards each
one's bytes unchanged, length prefix and all.  The broker is also the
supervisor's injection point for ``recover`` / ``stop`` broadcasts and
its crash detector.  A worker attaches in one of two ways:

* :meth:`Broker.endpoint` — the worker is an asyncio task on the broker's
  own loop and its connection is an in-process queue of encoded frames.
  Zero setup cost; what the fast tests and ``--transport local`` runs use.
* :func:`connect_tcp` — the worker is a separate OS process with one real
  TCP connection to the socket :meth:`Broker.start` opens; every byte
  crosses the loopback stack, and a SIGKILLed worker surfaces as a
  connection reset.

Every TCP write goes through a :class:`FrameBatcher`: sends coalesce into
one buffered socket write per event-loop pass, and the flush task awaits
``writer.drain()`` so a slow peer exerts real backpressure instead of
growing an unbounded kernel buffer.  The batcher's ``pre_flush`` hook is
how the journal-before-send discipline survives buffered journals: the
worker points it at ``Journal.flush``, making every ``send`` record
durable before the frame it describes can reach the wire.

The broker is also the run's start barrier: constructed with
``barrier=n``, it holds every TCP worker's ``welcome`` until ``n``
distinct pids have connected, so no worker sends a frame to a peer the
broker cannot route to yet.  Once the barrier has opened, a reconnecting
worker (a respawn after a crash) is welcomed at once.

Frames addressed to a pid with no live connection are not silently
dropped: frames for a *known* pid (one that connected before — the
crash/reconnect window) are parked and either replayed on reconnect or
superseded by the next ``recover`` broadcast; frames for an unknown pid
are counted.  ``dropped_by_cause`` itemizes every loss, whichever way the
worker attached.

Both kinds of connection preserve per-sender FIFO order, which the
epoch-based stale-message filter relies on (a ``recover`` broadcast is
enqueued to every peer before any post-recovery frame can be routed to
it).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from .wire import (
    FrameSplitter,
    check_handshake,
    decode_frame,
    encode_frame,
    frame_dst,
    hello_frame,
    read_wire_frame,
    welcome_frame,
)

#: Parked frames kept per disconnected-but-known pid before overflow.
PARK_LIMIT = 512

#: Most bytes one ``reader.read()`` takes off a socket.
READ_SIZE = 1 << 18


class Endpoint:
    """Interface a live host drives: sync send, awaitable recv."""

    pid: int
    #: Recovery epoch the broker reported when this endpoint attached.
    epoch: int = 0

    def send(self, frame: dict[str, Any]) -> None:
        """Queue one frame for delivery to ``frame['dst']``."""
        raise NotImplementedError

    async def recv(self) -> dict[str, Any] | None:
        """Next inbound frame, or ``None`` once the transport closed."""
        raise NotImplementedError

    async def drain(self) -> None:
        """Wait until buffered sends reach the wire (backpressure); a
        transport that never buffers has nothing to wait for."""

    def set_pre_flush(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every wire write (the journal-flush hook);
        a transport that never buffers needs none."""

    def close(self) -> None:
        """Tear the endpoint down (idempotent)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# connections: what the broker pushes encoded frames into
# --------------------------------------------------------------------------


class FrameBatcher:
    """Coalesce frame writes into one buffered socket write per flush.

    ``push`` is synchronous (what a sync ``Endpoint.send`` needs); an
    owned flush task wakes up, hands the whole buffer to the writer in a
    single ``write()``, and awaits ``drain()`` — so back-to-back sends in
    one event-loop pass become one syscall, and a slow peer's TCP window
    stalls the flush task instead of growing the buffer without bound.

    ``pre_flush`` (if set) runs right before each socket write; the live
    worker wires it to ``Journal.flush`` so buffered journal records are
    durable before the frames they describe hit the wire.
    """

    def __init__(self, writer: asyncio.StreamWriter, *,
                 pre_flush: Callable[[], None] | None = None) -> None:
        self._writer = writer
        self.pre_flush = pre_flush
        self._buf = bytearray()
        self._wakeup = asyncio.Event()
        #: Flush-task handle — retained (REP102) and cancelled on close.
        self._task: asyncio.Task | None = None
        self._closed = False

    def push(self, data: bytes) -> None:
        """Append one encoded frame to the write buffer (sync)."""
        if self._closed:
            return
        self._buf += data
        self._wakeup.set()
        if self._task is None:
            self._task = asyncio.get_event_loop().create_task(
                self._flush_loop())

    def _take(self) -> bytes:
        """Swap the buffer out before any await (REP103: take-then-null)."""
        if self._buf and self.pre_flush is not None:
            self.pre_flush()
        data, self._buf = self._buf, bytearray()
        return bytes(data)

    async def _flush_loop(self) -> None:
        try:
            while not self._closed:
                await self._wakeup.wait()
                self._wakeup.clear()
                while self._buf:
                    self._writer.write(self._take())
                    await self._writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def drain(self) -> None:
        """Flush everything buffered and wait for the socket to accept it."""
        if self._closed:
            return
        data = self._take()
        if data:
            self._writer.write(data)
        try:
            await self._writer.drain()
        except ConnectionError:
            pass

    def close(self) -> None:
        """Final synchronous flush, cancel the flush task, close the
        writer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            data = self._take()
            if data:
                self._writer.write(data)
        except (ConnectionError, RuntimeError):
            pass
        if self._task is not None:
            self._task.cancel()
        self._writer.close()


class _Pipe(asyncio.Queue[bytes | None]):
    """An in-process connection: encoded frames queued for one worker;
    ``None`` is its end of stream."""

    def push(self, data: bytes) -> None:
        """Queue one encoded frame (sync)."""
        self.put_nowait(data)

    def close(self) -> None:
        """End the stream: the worker's pending ``recv`` returns ``None``."""
        self.put_nowait(None)


# --------------------------------------------------------------------------
# the router
# --------------------------------------------------------------------------


class Broker:
    """Supervisor-side hub: attaches workers, routes frames.

    ``on_disconnect`` (if set) is called with the pid whenever a worker's
    connection drops — the supervisor's crash detector.  Frames for a pid
    in the crash/reconnect window are parked (bounded) and replayed on
    reconnect or superseded by the next ``recover`` broadcast; all losses
    are itemized in ``dropped_by_cause``.
    """

    def __init__(self, epoch: int = 0, barrier: int = 0) -> None:
        self.epoch = epoch
        #: Distinct pids that must connect before any TCP worker is
        #: welcomed (the run's start barrier; 0 = none).
        self.barrier = barrier
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[int, FrameBatcher | _Pipe] = {}
        #: Pids that have connected at least once (reconnect-window set).
        self._known_pids: set[int] = set()
        #: Connections whose welcome waits for the start barrier.
        self._held: list[tuple[int, FrameBatcher]] = []
        #: Encoded frames awaiting a known pid's reconnection.
        self._parked: dict[int, list[bytes]] = {}
        self._connected = asyncio.Event()
        self.port: int | None = None
        #: Frames addressed to a pid with no live connection, by cause:
        #: no_route (never-connected pid), park_overflow (reconnect window
        #: overran PARK_LIMIT), superseded (parked frames made obsolete by
        #: a recover order).
        self.dropped_by_cause: dict[str, int] = {}
        self.on_disconnect: Callable[[int], None] | None = None

    async def start(self) -> int:
        """Listen on an ephemeral localhost port; returns the port."""
        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def endpoint(self, pid: int) -> InProcessEndpoint:
        """Attach worker ``pid`` as a task on this loop; a pid seen
        before gets its parked frames, like a TCP reconnect."""
        pipe = _Pipe()
        endpoint = InProcessEndpoint(self, pid, pipe)
        self._attach(pid, pipe)
        return endpoint

    @property
    def connected_pids(self) -> list[int]:
        """Pids with a live connection, ascending."""
        return sorted(self._conns)

    async def wait_connected(self, n: int, timeout: float = 10.0) -> None:
        """Block until ``n`` workers are connected (raises on timeout)."""

        async def _wait() -> None:
            while len(self._conns) < n:
                self._connected.clear()
                await self._connected.wait()

        await asyncio.wait_for(_wait(), timeout)

    def disconnect(self, pid: int) -> None:
        """Drop ``pid``'s connection now instead of at its EOF.

        For a worker the supervisor has reaped: until the reader task
        sees the EOF, the dead connection still counts towards
        :meth:`wait_connected` — which would then return before the
        respawned incarnation exists — and swallows frames routed to it.
        Once dropped, those frames park for the next incarnation.
        """
        conn = self._conns.pop(pid, None)
        if conn is not None:
            conn.close()

    def _attach(self, pid: int, conn: FrameBatcher | _Pipe) -> None:
        """Register ``pid``'s connection and replay its parked frames."""
        self._conns[pid] = conn
        self._known_pids.add(pid)
        for data in self._parked.pop(pid, []):
            conn.push(data)
        self._connected.set()

    def _welcome(self, pid: int, conn: FrameBatcher) -> None:
        """Welcome and attach ``pid``'s TCP connection, or hold it until
        the start barrier opens (then welcome and attach every held one;
        parked frames follow the welcome)."""
        self._known_pids.add(pid)
        self._held.append((pid, conn))
        if len(self._known_pids) < self.barrier:
            return
        data = encode_frame(welcome_frame(self.epoch))
        held, self._held = self._held, []
        for held_pid, held_conn in held:
            held_conn.push(data)
            self._attach(held_pid, held_conn)

    def _detach(self, pid: int, conn: FrameBatcher | _Pipe) -> None:
        """``pid``'s connection ``conn`` ended; a newer one stays."""
        self._held = [(p, c) for p, c in self._held if c is not conn]
        if self._conns.get(pid) is conn:
            del self._conns[pid]
            if self.on_disconnect is not None:
                self.on_disconnect(pid)
        conn.close()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Per-connection task: handshake, then route until EOF."""
        pid = 0
        conn = None
        try:
            hello = await read_wire_frame(reader)
            if hello is None:
                return
            pid = check_handshake(hello, "hello")["pid"]
            conn = FrameBatcher(writer)
            self._welcome(pid, conn)
            splitter = FrameSplitter()
            while True:
                chunk = await reader.read(READ_SIZE)
                if not chunk:
                    break
                for data in splitter.feed(chunk):
                    self._route(data)
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            if conn is not None:
                self._detach(pid, conn)
            else:
                writer.close()

    # -- routing -----------------------------------------------------------

    def _drop(self, cause: str, count: int = 1) -> None:
        self.dropped_by_cause[cause] = (
            self.dropped_by_cause.get(cause, 0) + count)

    def _route(self, data: bytes) -> None:
        """Forward one encoded frame to its ``dst``, bytes unchanged.

        A frame for a known-but-disconnected pid parks (bounded); one
        for a pid that never connected is dropped and counted.
        """
        dst = frame_dst(data)
        conn = self._conns.get(dst)
        if conn is not None:
            conn.push(data)
        elif dst not in self._known_pids:
            self._drop("no_route")
        else:
            queue = self._parked.setdefault(dst, [])
            if len(queue) >= PARK_LIMIT:
                self._drop("park_overflow")
            else:
                queue.append(data)

    def broadcast(self, frame: dict[str, Any]) -> None:
        """Supervisor-originated frame to every connected worker.

        A ``recover`` broadcast supersedes every parked frame: the
        execution they belonged to is being discarded, so replaying them
        to the reconnecting worker would only feed its stale-epoch filter.
        """
        if frame.get("t") == "recover":
            for dst in sorted(self._parked):
                self._drop("superseded", len(self._parked[dst]))
            self._parked.clear()
        data = encode_frame(frame)
        for pid in sorted(self._conns):
            self._conns[pid].push(data)

    async def close(self) -> None:
        """Close the listener and every worker connection."""
        # Take-then-null before awaiting: a second close() arriving while
        # wait_closed() is suspended must see None, not re-close (REP103).
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for pid in sorted(self._conns):
            self._conns[pid].close()
        self._conns.clear()


# --------------------------------------------------------------------------
# worker-side endpoints
# --------------------------------------------------------------------------


class InProcessEndpoint(Endpoint):
    """A worker on the broker's own loop (:meth:`Broker.endpoint`)."""

    def __init__(self, broker: Broker, pid: int, pipe: _Pipe) -> None:
        self.pid = pid
        self.epoch = broker.epoch
        self._broker = broker
        self._pipe = pipe
        self._closed = False

    def send(self, frame: dict[str, Any]) -> None:
        """Encode the frame and route it, as the broker routes a TCP
        worker's bytes."""
        if not self._closed:
            self._broker._route(encode_frame(frame))

    async def recv(self) -> dict[str, Any] | None:
        """Decode the next queued frame; ``None`` once the broker dropped
        this connection or the endpoint closed."""
        if self._closed:
            return None
        data = await self._pipe.get()
        if data is None:
            self._pipe.close()      # every later recv sees the end too
            return None
        return decode_frame(data)

    def close(self) -> None:
        """Detach from the broker, like closing a socket (idempotent)."""
        self._closed = True
        self._broker._detach(self.pid, self._pipe)


class TcpEndpoint(Endpoint):
    """Worker-side handle on one broker connection."""

    def __init__(self, pid: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, epoch: int) -> None:
        self.pid = pid
        self._reader = reader
        self._splitter = FrameSplitter()
        #: Frames of the last socket read not yet handed to ``recv``.
        self._frames: deque[bytes] = deque()
        self._batcher = FrameBatcher(writer)
        #: Recovery epoch the broker reported at handshake time.
        self.epoch = epoch
        self._closed = False

    def set_pre_flush(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every socket write (journal-flush hook)."""
        self._batcher.pre_flush = hook

    def send(self, frame: dict[str, Any]) -> None:
        """Buffer the frame for the next coalesced write (never blocks)."""
        if not self._closed:
            self._batcher.push(encode_frame(frame))

    async def recv(self) -> dict[str, Any] | None:
        """Next frame from the broker; ``None`` on EOF/reset.

        Awaits the socket only when the last read's frames are used up:
        the frames of one read are handed out without a suspension.
        """
        frames = self._frames
        while not frames:
            if self._closed:
                return None
            try:
                chunk = await self._reader.read(READ_SIZE)
            except ConnectionError:
                return None
            if not chunk:
                return None
            frames.extend(self._splitter.feed(chunk))
        if self._closed:
            return None
        return decode_frame(frames.popleft())

    async def drain(self) -> None:
        """Flush the write buffer and wait for socket-level flow control."""
        if not self._closed:
            await self._batcher.drain()

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            self._batcher.close()


async def connect_tcp(port: int, pid: int, incarnation: int,
                      host: str = "127.0.0.1",
                      timeout: float = 10.0,
                      attempts: int = 1,
                      retry_delay: float = 0.2) -> TcpEndpoint:
    """Open a worker connection to the broker and run the handshake.

    Retries up to ``attempts`` times with exponential backoff starting at
    ``retry_delay`` (capped at 2 s per wait) — a worker spawned before the
    broker finished binding, or racing a broker restart, reconnects
    instead of dying on the first refused connection.  A failed attempt
    closes its socket.
    """

    async def _handshake() -> TcpEndpoint:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode_frame(hello_frame(pid, incarnation)))
            frame = await read_wire_frame(reader)
            if frame is None:
                raise ConnectionError("broker closed during handshake")
            welcome = check_handshake(frame, "welcome")
        except BaseException:
            # Refused version, early EOF or wait_for's cancellation.
            writer.close()
            raise
        return TcpEndpoint(pid, reader, writer, epoch=welcome["epoch"])

    last: Exception | None = None
    for attempt in range(max(1, attempts)):
        if attempt:
            await asyncio.sleep(min(retry_delay * (2 ** (attempt - 1)), 2.0))
        try:
            return await asyncio.wait_for(_handshake(), timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            last = exc
    raise ConnectionError(
        f"worker P{pid} could not reach broker at {host}:{port} after "
        f"{max(1, attempts)} attempt(s): {last!r}")
