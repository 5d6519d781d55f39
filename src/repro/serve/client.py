"""The synchronous client behind ``repro submit`` / ``repro watch``.

Plain stdlib: ``http.client`` for the control calls, a raw socket with a
hand-rolled RFC 6455 handshake for the event stream (client frames are
masked, as the RFC requires of clients).  Synchronous on purpose — the
CLI is a short-lived process per invocation; only the *server* needs an
event loop.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
from typing import Any, Iterator

from .protocol import SERVE_SCHEMA, _ws_accept


class ServeClientError(RuntimeError):
    """A request the server rejected (carries its HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeClient:
    """One server address; every method is a fresh connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7341, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- control calls --------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Any = None) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            resp = conn.getresponse()
            raw = resp.read()
            ctype = resp.getheader("Content-Type", "")
            if ctype.startswith("application/json"):
                return resp.status, json.loads(raw.decode("utf-8"))
            return resp.status, raw
        finally:
            conn.close()

    def _checked(self, method: str, path: str,
                 payload: Any = None) -> Any:
        status, data = self._request(method, path, payload)
        if status >= 400:
            message = (data.get("error", str(data))
                       if isinstance(data, dict) else str(data))
            raise ServeClientError(status, message)
        return data

    def submit(self, kind: str, spec: dict[str, Any] | None = None, *,
               priority: int = 0) -> dict[str, Any]:
        """Submit one job; returns the created record."""
        payload = {"schema": SERVE_SCHEMA, "kind": kind,
                   "spec": spec or {}, "priority": priority}
        return self._checked("POST", "/jobs", payload)["job"]

    def job(self, job_id: str) -> dict[str, Any]:
        """One job record."""
        return self._checked("GET", f"/jobs/{job_id}")["job"]

    def jobs(self) -> list[dict[str, Any]]:
        """Every job record, submission order."""
        return self._checked("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cooperatively cancel; returns the current record."""
        return self._checked("DELETE", f"/jobs/{job_id}")["job"]

    def artifact(self, job_id: str, relpath: str) -> bytes:
        """One artifact file's bytes."""
        return self._checked("GET", f"/artifacts/{job_id}/{relpath}")

    def wait(self, job_id: str) -> dict[str, Any]:
        """Stream events until the job is terminal; returns the record."""
        for _ in self.watch(job_id):
            pass
        return self.job(job_id)

    # -- the event stream -----------------------------------------------

    def watch(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield every ``repro.serve/1`` event for one job: the full
        replay from submission, then live until the job is terminal (the
        server closes the stream)."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            sock.sendall((
                f"GET /events?job={job_id} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n").encode("ascii"))
            reader = sock.makefile("rb")
            status_line = reader.readline().decode("ascii", "replace")
            if " 101 " not in status_line:
                raise ServeClientError(
                    400, f"websocket handshake refused: "
                         f"{status_line.strip()}")
            accept = None
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "sec-websocket-accept":
                    accept = value.strip()
            if accept != _ws_accept(key):
                raise ServeClientError(400, "bad Sec-WebSocket-Accept")
            while True:
                frame = _read_frame(reader)
                if frame is None:
                    return
                opcode, payload = frame
                if opcode == 0x8:      # close
                    sock.sendall(_masked_frame(0x8, b""))
                    return
                if opcode == 0x1:
                    yield json.loads(payload.decode("utf-8"))
        finally:
            sock.close()


def _read_frame(reader: Any) -> tuple[int, bytes] | None:
    """One server frame (unmasked), or None on EOF."""
    head = reader.read(2)
    if len(head) < 2:
        return None
    opcode = head[0] & 0x0F
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(reader.read(2), "big")
    elif length == 127:
        length = int.from_bytes(reader.read(8), "big")
    payload = reader.read(length) if length else b""
    if len(payload) < length:
        return None
    return opcode, payload


def _masked_frame(opcode: int, payload: bytes) -> bytes:
    """One client→server frame (RFC 6455 requires client masking)."""
    mask = os.urandom(4)
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    n = len(payload)
    if n < 126:
        head = bytes([0x80 | opcode, 0x80 | n])
    elif n < 65536:
        head = bytes([0x80 | opcode, 0x80 | 126]) + n.to_bytes(2, "big")
    else:
        head = bytes([0x80 | opcode, 0x80 | 127]) + n.to_bytes(8, "big")
    return head + mask + masked


__all__ = ["ServeClient", "ServeClientError"]
