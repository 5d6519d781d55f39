"""The asyncio job server: HTTP control surface + WebSocket streams.

Plain asyncio streams — no web framework.  The HTTP side is the minimal
subset the control plane needs (request line, headers, Content-Length
bodies); the event stream is RFC 6455 WebSocket, text frames only,
implemented directly over the same streams:

===========================  =============================================
``POST /jobs``               submit one validated job (201 + record);
                             503 while draining
``GET /jobs``                every job record, submission order
``GET /jobs/{id}``           one record (404 unknown)
``DELETE /jobs/{id}``        cooperative cancel (200 + current record)
``GET /artifacts/{id}/<p>``  one artifact file (404; traversal-guarded)
``GET /events?job={id}``     WebSocket: replay + live ``repro.serve/1``
                             events until the job is terminal
===========================  =============================================

The event stream is push, end to end: :meth:`Scheduler.emit` encodes an
event once, appends that text to ``events.jsonl`` and publishes it to the
job's hub; publishing into an empty subscription queue wakes the
watcher's coroutine (``loop.call_soon_threadsafe`` from the job's
thread), which frames the same text onto its socket.  A watcher with
nothing to send is parked on an ``asyncio.Event`` — there is no poll
period anywhere on the path.

Shutdown is a *drain*, not an abort: SIGTERM/SIGINT set one event; the
server then refuses new jobs (503), wakes every parked watcher so that it
sends what it has and its close frame, checkpoint-cancels running jobs
through their cooperative cancel hooks, waits for them to land terminal,
persists everything and exits 0.  Queued jobs stay queued on disk — a
restarted server picks them up.

Every handler keeps the event loop responsive: filesystem and scheduler
work runs via ``loop.run_in_executor`` (the scheduler's sync methods are
thread-safe), so one client uploading a job never stalls another's
event stream.
"""

from __future__ import annotations

import asyncio
import json
import signal
from functools import partial
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .protocol import ProtocolError, _ws_accept, validate_job
from .scheduler import Scheduler

_STATUS_TEXT = {200: "OK", 201: "Created", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                500: "Internal Server Error", 503: "Service Unavailable"}


def _http_response(status: int, payload: Any, *,
                   content_type: str = "application/json") -> bytes:
    if isinstance(payload, (bytes, bytearray)):
        # Raw artifact bytes must not claim to be JSON, or clients
        # would decode them instead of handing back the file.
        body = bytes(payload)
        content_type = "application/octet-stream"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One server→client frame (FIN set, unmasked)."""
    head = bytes([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head += bytes([n])
    elif n < 65536:
        head += bytes([126]) + n.to_bytes(2, "big")
    else:
        head += bytes([127]) + n.to_bytes(8, "big")
    return head + payload


class ServeServer:
    """One long-lived multi-client job server."""

    def __init__(self, scheduler: Scheduler, *, host: str = "127.0.0.1",
                 port: int = 7341) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: The actually bound port (useful with ``port=0`` in tests).
        self.bound_port: int | None = None
        self._shutdown = asyncio.Event()
        #: The wake events of the watchers streaming a live job.
        self._watchers: list[asyncio.Event] = []
        self._server: asyncio.base_events.Server | None = None
        self._dispatch_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin the graceful drain (signal handlers land here)."""
        self.scheduler.draining = True
        self._shutdown.set()
        for wake in self._watchers:
            wake.set()

    async def start(self) -> None:
        """Bind, recover persisted jobs, start dispatching."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.recover)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._dispatch_task = asyncio.create_task(
            self.scheduler.dispatch_loop())
        self.scheduler.kick()

    async def run_until_shutdown(self) -> int:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, ValueError, RuntimeError):
                pass                   # non-main thread (tests) / platform
        await self._shutdown.wait()
        await self.shutdown()
        return 0

    async def shutdown(self) -> None:
        """Drain running jobs, flush state, close every connection."""
        self.request_shutdown()
        await self.scheduler.drain()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=5.0)
            except (asyncio.TimeoutError, TimeoutError):
                pass                   # lingering watchers; sockets die
                #                        with the process

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                       # client went away mid-request
        except Exception as exc:  # one bad request must not kill serving
            try:
                writer.write(_http_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        request_line = await reader.readline()
        if not request_line.strip():
            return
        try:
            method, target, _version = \
                request_line.decode("ascii").split()
        except ValueError:
            writer.write(_http_response(400, {"error": "bad request line"}))
            await writer.drain()
            return
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)

        if path == "/events" and \
                headers.get("upgrade", "").lower() == "websocket":
            await self._handle_websocket(writer, headers, query)
            return
        status, payload = await self._route(method, path, body)
        writer.write(_http_response(status, payload))
        await writer.drain()

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, Any]:
        loop = asyncio.get_running_loop()
        parts = [p for p in path.split("/") if p]

        if path == "/jobs" and method == "POST":
            if self.scheduler.draining:
                return 503, {"error": "server is draining; "
                                      "not accepting jobs"}
            try:
                normalized = validate_job(json.loads(body.decode("utf-8")))
                if normalized["kind"] == "sweep":
                    # The light config module: no simulator at start-up
                    # or here; a bad sweep gets no job id.
                    from ..harness.experiment import check_sweep
                    check_sweep(normalized["spec"]["param"],
                                normalized["spec"]["protocols"])
            except (ValueError, ProtocolError) as exc:
                return 400, {"error": str(exc)}
            try:
                record = await loop.run_in_executor(
                    None, self.scheduler.submit, normalized)
            except RuntimeError as exc:
                return 503, {"error": str(exc)}
            self.scheduler.kick()
            return 201, {"job": record.as_dict()}

        if path == "/jobs" and method == "GET":
            records = sorted(self.scheduler.records.values(),
                             key=lambda r: r.seq)
            return 200, {"jobs": [r.as_dict() for r in records]}

        if len(parts) == 2 and parts[0] == "jobs":
            job_id = parts[1]
            record = self.scheduler.records.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if method == "GET":
                return 200, {"job": record.as_dict()}
            if method == "DELETE":
                record = await loop.run_in_executor(
                    None, self.scheduler.cancel, job_id)
                return 200, {"job": record.as_dict()}
            return 405, {"error": f"{method} not allowed on {path}"}

        if len(parts) >= 2 and parts[0] == "artifacts" and method == "GET":
            job_id = parts[1]
            if job_id not in self.scheduler.records:
                return 404, {"error": f"unknown job {job_id!r}"}
            root = self.scheduler.store.artifacts_dir(job_id).resolve()
            target = root.joinpath(*parts[2:]).resolve()
            if root not in target.parents and target != root:
                return 404, {"error": "artifact path escapes the job"}
            exists = await loop.run_in_executor(None, target.is_file)
            if not exists:
                return 404, {"error": f"no artifact "
                                      f"{'/'.join(parts[2:])!r}"}
            data = await loop.run_in_executor(None, target.read_bytes)
            return 200, data

        return 404, {"error": f"no route for {method} {path}"}

    # -- the event stream -----------------------------------------------

    async def _handle_websocket(self, writer: asyncio.StreamWriter,
                                headers: dict[str, str],
                                query: dict[str, list[str]]) -> None:
        key = headers.get("sec-websocket-key", "")
        job_ids = query.get("job", [])
        if not key or len(job_ids) != 1 \
                or job_ids[0] not in self.scheduler.records:
            writer.write(_http_response(
                400, {"error": "need a websocket key and ?job=<known id>"}))
            await writer.drain()
            return
        job_id = job_ids[0]
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {_ws_accept(key)}\r\n\r\n"
        ).encode("ascii"))
        await writer.drain()

        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        self._watchers.append(wake)
        sub = None
        try:
            # Events reach this coroutine as the text ``Scheduler.emit``
            # encoded: replayed lines first, then ``(text, terminal)``
            # pairs from the subscription, whose wake callable runs on
            # the emitting job's thread.
            past, sub = await loop.run_in_executor(None, partial(
                self.scheduler.attach, job_id,
                wake=partial(loop.call_soon_threadsafe, wake.set)))
            for text in past:
                writer.write(_ws_frame(0x1, text.encode("utf-8")))
            await writer.drain()
            terminal_seen = False
            while sub is not None:
                # Clear before draining: an event published after this
                # pop_all() sets the flag again and ends the next wait.
                wake.clear()
                items = sub.pop_all()
                for text, terminal in items:
                    writer.write(_ws_frame(0x1, text.encode("utf-8")))
                    terminal_seen = terminal_seen or terminal
                if items:
                    await writer.drain()
                if terminal_seen or sub.closed \
                        or self._shutdown.is_set():
                    break
                await wake.wait()
            writer.write(_ws_frame(0x8, b""))
            await writer.drain()
        finally:
            self._watchers.remove(wake)
            if sub is not None:
                sub.close()


async def _serve_main(server: ServeServer) -> int:
    return await server.run_until_shutdown()


def serve_forever(scheduler: Scheduler, *, host: str = "127.0.0.1",
                  port: int = 7341) -> int:
    """Blocking entry: serve until a signal lands; returns the exit code."""
    server = ServeServer(scheduler, host=host, port=port)
    return asyncio.run(_serve_main(server))
