"""Live wire format: length-prefixed binary frames.

Hosts build and read frame *dicts*; this module is the only place they
become bytes.  Both ways a worker attaches to the broker (an in-process
queue or a TCP socket, see :mod:`repro.live.transport`) carry the bytes
below, encoded at the sender and decoded at the receiver.  A frame is::

    +----------------+---------------------------------------------+
    | length  !I (4) | payload (length bytes, < MAX_FRAME_BYTES)   |
    +----------------+---------------------------------------------+

    payload = header !BBiiI (14 bytes) + kind-specific body
              version, kind-code, src, dst, epoch

The protocol payloads inside the body — the paper's ``(csn, stat,
tentSet)`` piggyback and ``CM(type, csn)`` control message — use the
version-stamped struct encoders of :mod:`repro.storage.serialize`
(:func:`~repro.storage.serialize.pack_piggyback` /
:func:`~repro.storage.serialize.pack_control`), so the simulator, the
checkpoint files, and the live wire still share one version contract.

The length is checked against :data:`MAX_FRAME_BYTES` on both sides:
an oversized frame fails with a clean ``ValueError`` at the encoder, and
both readers — :func:`read_wire` for the handshake and
:class:`FrameSplitter` for every frame after it — reject an oversized
prefix before buffering the payload it announces, which is also how
bytes that are not a frame at all (a peer writing text) end the
connection instead of allocating a buffer.  :class:`FrameSplitter` cuts
every complete frame out of one ``reader.read()``, so a connection's
reader awaits once per socket read, not twice per frame.

Frame kinds
-----------

``hello`` / ``welcome``
    Connection handshake (worker → broker / broker → worker).  Both carry
    the wire version; a mismatch fails the connection immediately instead
    of corrupting a run.
``app``
    One application message: src, dst, uid, payload size, the sender's
    piggyback, and the sender's recovery epoch.
``ctl``
    One protocol control message (CK_BGN / CK_REQ / CK_END) plus epoch.
``ack``
    Coalesced delivery acknowledgement used by the resilient transport
    layer (:mod:`repro.live.resilience`): the body is a count, then that
    many retransmission sequence numbers ``rs``, one per ``app`` or
    ``ctl`` frame the acker received from ``dst`` in one event-loop pass.
    A list that would not fit in one frame is split across several
    (:func:`ack_frames`).  Hosts that do not run the resilience layer
    simply ignore acks.
``recover``
    Supervisor broadcast: roll back to finalized generation ``seq`` and
    enter recovery ``epoch`` (the live analogue of
    :class:`repro.recovery.restart.RecoveryManager`'s system-wide rollback).
``stop``
    Supervisor broadcast: finish up, flush journals, exit cleanly.

Epochs implement the "drop in-flight messages of the discarded execution"
rule: every data frame is stamped with the sender's epoch and receivers
discard frames from older epochs after a rollback.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Iterable

from ..core.types import ControlMessage, Piggyback
from ..storage.serialize import (
    ACCEPTED_WIRE_VERSIONS,
    WIRE_VERSION,
    control_message_from_dict,
    control_message_to_dict,
    pack_control,
    pack_piggyback,
    piggyback_from_dict,
    piggyback_to_dict,
    unpack_control,
    unpack_piggyback,
)

#: Destination pid denoting the supervisor/broker itself.
SUPERVISOR = -1

#: Maximum incarnations per pid encodable in a message uid.
MAX_INCARNATIONS = 1 << 10

#: Maximum counter value encodable in a message uid (the low 32 bits).
MAX_UID_COUNTER = 1 << 32

#: Hard payload ceiling, enforced by the encoder and by the reader.
MAX_FRAME_BYTES = (1 << 24) - 1

_LEN = struct.Struct("!I")
#: Payload header: version B, kind-code B, src i, dst i, epoch I.
_HEAD = struct.Struct("!BBiiI")
#: app body head: uid Q, size I, rs Q (0 = no retransmission seqno).
_APP_HEAD = struct.Struct("!QIQ")
_RS = struct.Struct("!Q")
_U32 = struct.Struct("!I")

#: Offset of the dst field inside a framed frame (broker forward path):
#: the length prefix, then version and kind-code.
_DST_OFFSET = _LEN.size + 6
_DST = struct.Struct("!i")

_KIND_CODES = {"hello": 1, "welcome": 2, "app": 3, "ctl": 4, "ack": 5,
               "recover": 6, "stop": 7}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def make_uid(pid: int, incarnation: int, counter: int) -> int:
    """Globally-unique message uid across processes and restarts.

    Layout: ``(pid * MAX_INCARNATIONS + incarnation) << 32 | counter`` —
    uids from a crashed incarnation can never collide with uids minted
    after the restart, which keeps the conformance replay's endpoint map
    unambiguous.  All three fields are range-checked: a counter at or
    above 2**32 would bleed into the incarnation/pid bits and collide
    with another incarnation's uids, and a negative pid would alias a
    different (pid, incarnation) pair entirely.
    """
    if pid < 0:
        raise ValueError(f"pid {pid} must be non-negative")
    if not (0 <= incarnation < MAX_INCARNATIONS):
        raise ValueError(f"incarnation {incarnation} out of range")
    if not (0 <= counter < MAX_UID_COUNTER):
        raise ValueError(f"counter {counter} out of range")
    return ((pid * MAX_INCARNATIONS + incarnation) << 32) | counter


# --------------------------------------------------------------------------
# encoding
# --------------------------------------------------------------------------


def encode_payload(frame: dict[str, Any]) -> bytes:
    """The binary payload of one frame (no length prefix)."""
    kind = frame.get("t")
    code = _KIND_CODES.get(kind)
    if code is None:
        raise ValueError(f"unknown frame kind {kind!r}")
    version = frame.get("v", WIRE_VERSION)
    if version not in ACCEPTED_WIRE_VERSIONS:
        raise ValueError(
            f"cannot binary-encode wire version {version!r} "
            f"(accepted: {ACCEPTED_WIRE_VERSIONS})")
    # hello has no "src" key — its pid rides in the header src field.
    src = frame["pid"] if kind == "hello" else frame.get("src", SUPERVISOR)
    head = _HEAD.pack(version, code, src,
                      frame.get("dst", SUPERVISOR), frame.get("epoch", 0))
    if kind == "app":
        return (head
                + _APP_HEAD.pack(frame["uid"], frame["size"],
                                 frame.get("rs", 0))
                + pack_piggyback(frame["pb"]))
    if kind == "ctl":
        return head + _RS.pack(frame.get("rs", 0)) + pack_control(frame["cm"])
    if kind == "ack":
        rs = frame["rs"]
        return head + _U32.pack(len(rs)) + struct.pack(f"!{len(rs)}Q", *rs)
    if kind == "hello":
        return head + _U32.pack(frame["inc"])
    if kind == "recover":
        return head + _U32.pack(frame["seq"])
    # welcome / stop: header only.
    return head


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame as it crosses the socket: length prefix + payload.

    Raises :class:`ValueError` for frames whose payload would exceed
    :data:`MAX_FRAME_BYTES`.
    """
    payload = encode_payload(frame)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return _LEN.pack(len(payload)) + payload


def frame_dst(data: bytes) -> int:
    """Read the dst field straight out of a framed frame (no decode)."""
    return _DST.unpack_from(data, _DST_OFFSET)[0]


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Parse one binary payload back into a frame dict.

    Per-kind inverse of :func:`encode_payload`: each kind reconstructs
    exactly the keys its ``*_frame`` constructor produces, so
    ``decode(encode(frame)) == frame`` holds dict-for-dict.  Truncated
    or malformed payloads raise :class:`ValueError`.
    """
    try:
        return _decode_payload(payload)
    except struct.error as exc:
        raise ValueError(f"truncated frame payload: {exc}") from exc


def _decode_payload(payload: bytes) -> dict[str, Any]:
    version, code, src, dst, epoch = _HEAD.unpack_from(payload, 0)
    if version not in ACCEPTED_WIRE_VERSIONS:
        raise ValueError(
            f"unsupported binary wire version {version!r} "
            f"(accepted: {ACCEPTED_WIRE_VERSIONS})")
    kind = _KIND_NAMES.get(code)
    if kind is None:
        raise ValueError(f"unknown frame kind code {code}")
    body = _HEAD.size
    if kind == "app":
        uid, size, rs = _APP_HEAD.unpack_from(payload, body)
        pb, _ = unpack_piggyback(payload, body + _APP_HEAD.size)
        frame = {"t": "app", "src": src, "dst": dst, "uid": uid,
                 "size": size, "pb": pb, "epoch": epoch}
        if rs:
            frame["rs"] = rs
        return frame
    if kind == "ctl":
        (rs,) = _RS.unpack_from(payload, body)
        cm, _ = unpack_control(payload, body + _RS.size)
        frame = {"t": "ctl", "src": src, "dst": dst, "cm": cm,
                 "epoch": epoch}
        if rs:
            frame["rs"] = rs
        return frame
    if kind == "ack":
        (count,) = _U32.unpack_from(payload, body)
        rs = struct.unpack_from(f"!{count}Q", payload, body + _U32.size)
        return {"t": "ack", "src": src, "dst": dst, "rs": list(rs)}
    if kind == "hello":
        (inc,) = _U32.unpack_from(payload, body)
        return {"t": "hello", "v": version, "pid": src, "inc": inc}
    if kind == "welcome":
        return {"t": "welcome", "v": version, "epoch": epoch}
    if kind == "recover":
        (seq,) = _U32.unpack_from(payload, body)
        return {"t": "recover", "epoch": epoch, "seq": seq}
    return {"t": "stop"}


def decode_frame(data: bytes) -> dict[str, Any]:
    """Parse one complete wire frame.

    Accepts a length-prefixed frame or a bare payload (first byte =
    version); the prefix's first byte is always ``0x00`` because
    :data:`MAX_FRAME_BYTES` is below 2**24.
    """
    if not data:
        raise ValueError("empty frame")
    if data[0] == 0x00 and len(data) >= _LEN.size:
        (length,) = _LEN.unpack_from(data, 0)
        if length == len(data) - _LEN.size:
            return decode_payload(data[_LEN.size:])
    return decode_payload(data)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})")


class FrameSplitter:
    """Cut a byte stream into whole frames, one socket read at a time.

    :meth:`feed` takes whatever one ``reader.read()`` returned and gives
    back every frame it completes, length prefix included — ready to be
    forwarded as is or decoded with :func:`decode_frame`.  A frame's
    length prefix is checked against :data:`MAX_FRAME_BYTES` as soon as
    its four bytes are in, so an oversized one raises ``ValueError``
    before any of its payload is kept.  The bytes of an incomplete frame
    wait in a list of parts, joined once the frame is whole, so a large
    frame spread over many reads costs one copy, not one per read.
    """

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self._have = 0
        #: Bytes the parts must reach before a feed can complete a frame.
        self._need = 0

    def feed(self, chunk: bytes) -> list[bytes]:
        """Every frame completed by ``chunk``, in stream order."""
        if self._parts:
            self._parts.append(chunk)
            self._have += len(chunk)
            if self._have < self._need:
                return []
            chunk = b"".join(self._parts)
            self._parts = []
        frames: list[bytes] = []
        pos, size = 0, len(chunk)
        need = _LEN.size
        while size - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(chunk, pos)
            _check_length(length)
            end = pos + _LEN.size + length
            if end > size:
                need = end - pos
                break
            frames.append(chunk[pos:end])
            pos = end
        if pos < size:
            self._parts = [chunk[pos:]]
            self._have = size - pos
            self._need = need
        return frames


async def read_wire(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame's payload off a stream; ``None`` on EOF.

    The length prefix is consumed and checked against
    :data:`MAX_FRAME_BYTES` before the payload it announces is read.
    """
    try:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        _check_length(length)
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None  # clean EOF, or torn mid-frame by a dying peer


async def read_wire_frame(reader: asyncio.StreamReader
                          ) -> dict[str, Any] | None:
    """Read and decode the next frame; ``None`` on EOF."""
    payload = await read_wire(reader)
    return None if payload is None else decode_payload(payload)


# --------------------------------------------------------------------------
# frame constructors
# --------------------------------------------------------------------------


def hello_frame(pid: int, incarnation: int) -> dict[str, Any]:
    """Handshake sent by a worker right after connecting."""
    return {"t": "hello", "v": WIRE_VERSION, "pid": pid,
            "inc": incarnation}


def welcome_frame(epoch: int) -> dict[str, Any]:
    """Handshake reply carrying the current recovery epoch."""
    return {"t": "welcome", "v": WIRE_VERSION, "epoch": epoch}


def check_handshake(frame: dict[str, Any], expect: str) -> dict[str, Any]:
    """Validate a handshake frame's kind and wire version."""
    if frame.get("t") != expect:
        raise ValueError(f"expected {expect} frame, got {frame.get('t')!r}")
    if frame.get("v") not in ACCEPTED_WIRE_VERSIONS:
        raise ValueError(
            f"wire version mismatch: peer speaks {frame.get('v')!r}, "
            f"we accept {ACCEPTED_WIRE_VERSIONS}")
    return frame


def app_frame(src: int, dst: int, uid: int, size: int, pb: Piggyback,
              epoch: int) -> dict[str, Any]:
    """One application message with its protocol piggyback."""
    return {"t": "app", "src": src, "dst": dst, "uid": uid, "size": size,
            "pb": piggyback_to_dict(pb), "epoch": epoch}


def ctl_frame(src: int, dst: int, cm: ControlMessage,
              epoch: int) -> dict[str, Any]:
    """One protocol control message."""
    return {"t": "ctl", "src": src, "dst": dst,
            "cm": control_message_to_dict(cm), "epoch": epoch}


def ack_frame(src: int, dst: int, rs: Iterable[int]) -> dict[str, Any]:
    """Acknowledge receipt of the frames with retransmission seqnos ``rs``.

    ``rs`` values are minted from the :func:`make_uid` namespace, so they
    stay globally unique across crashes/restarts — a receiver's dedup set
    can never confuse a new incarnation's frame with a stale one.
    """
    return {"t": "ack", "src": src, "dst": dst, "rs": list(rs)}


def ack_frames(src: int, dst: int, rs: list[int]) -> list[dict[str, Any]]:
    """``rs`` acknowledged in as few frames as :data:`MAX_FRAME_BYTES`
    allows (one, unless the list runs to millions)."""
    per = (MAX_FRAME_BYTES - _HEAD.size - _U32.size) // _RS.size
    return [ack_frame(src, dst, rs[i:i + per])
            for i in range(0, len(rs), per)]


def recover_frame(epoch: int, seq: int) -> dict[str, Any]:
    """Supervisor order: roll back to generation ``seq``, enter ``epoch``."""
    return {"t": "recover", "epoch": epoch, "seq": seq}


def stop_frame() -> dict[str, Any]:
    """Supervisor order: shut down cleanly."""
    return {"t": "stop"}


def frame_piggyback(frame: dict[str, Any]) -> Piggyback:
    """Decode the piggyback carried by an ``app`` frame."""
    return piggyback_from_dict(frame["pb"])


def frame_control(frame: dict[str, Any]) -> ControlMessage:
    """Decode the control message carried by a ``ctl`` frame."""
    return control_message_from_dict(frame["cm"])
