"""Checkpoint and wire serialization: durable JSON forms of protocol data.

A real deployment writes checkpoints to files and sends protocol state
over sockets; downstream tools (recovery orchestrators, audits, the
:mod:`repro.live` runtime) need to read both back.  This module gives
every finalized checkpoint a self-contained JSON representation with a
round-trip guarantee, plus a whole-run export that mirrors what a file
server's checkpoint directory would contain, plus the *wire* encodings of
the paper's two cross-process payloads — the ``(csn, stat, tentSet)``
piggyback (§3.4.2) and the ``CM(type, csn)`` control message (§3.5.1) —
used verbatim by the live transports.

Every encoding is version-stamped and intentionally boring: checkpoint
files carry ``format_version`` (:data:`FORMAT_VERSION`), wire payloads
carry ``v`` (:data:`WIRE_VERSION`), and every decoder validates the stamp
so either format can evolve without silently misreading old data.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from ..core.types import (
    ControlMessage,
    ControlType,
    FinalizedCheckpoint,
    LogEntry,
    LogSet,
    Piggyback,
    Status,
    TentativeCheckpoint,
)

#: On-disk checkpoint format version (files under a checkpoint directory).
FORMAT_VERSION = 1

#: Wire format version for cross-process payloads (piggybacks, control
#: messages, live-runtime frames).  Bumped independently of the checkpoint
#: file format — the two evolve on different schedules.  v2 was the
#: length-prefixed binary framing of :mod:`repro.live.wire` with the
#: struct-packed payload encodings below; v3 keeps both and makes the
#: ``ack`` body a count and a list of acknowledged seqnos.
WIRE_VERSION = 3

#: Every wire version decoders accept.  Encoders always stamp
#: :data:`WIRE_VERSION`; decoders test membership, so accepting a new
#: version is one more tuple entry.  REP106 statically checks that the
#: stamped version is in this tuple, that the tuple has no holes between
#: its minimum and maximum, and that decoders test membership rather
#: than equality.
ACCEPTED_WIRE_VERSIONS = (3,)


def _check_wire_version(data: dict[str, Any], what: str) -> None:
    """Reject payloads stamped with an unknown wire version."""
    version = data.get("v")
    if version not in ACCEPTED_WIRE_VERSIONS:
        raise ValueError(
            f"unsupported {what} wire version {version!r} "
            f"(accepted: {ACCEPTED_WIRE_VERSIONS})")


def piggyback_to_dict(pb: Piggyback) -> dict[str, Any]:
    """JSON-ready form of the ``(csn, stat, tentSet)`` piggyback."""
    return {"v": WIRE_VERSION, "csn": pb.csn, "stat": pb.stat.value,
            "tent_set": sorted(pb.tent_set)}


def piggyback_from_dict(data: dict[str, Any]) -> Piggyback:
    """Inverse of :func:`piggyback_to_dict` (validates the version stamp)."""
    _check_wire_version(data, "piggyback")
    return Piggyback(csn=data["csn"], stat=Status(data["stat"]),
                     tent_set=frozenset(data["tent_set"]))


def control_message_to_dict(cm: ControlMessage) -> dict[str, Any]:
    """JSON-ready form of a ``CM(type, csn)`` control message."""
    return {"v": WIRE_VERSION, "ctype": cm.ctype.value, "csn": cm.csn}


def control_message_from_dict(data: dict[str, Any]) -> ControlMessage:
    """Inverse of :func:`control_message_to_dict` (validates the stamp)."""
    _check_wire_version(data, "control message")
    return ControlMessage(ctype=ControlType(data["ctype"]), csn=data["csn"])


# --------------------------------------------------------------------------
# binary (v2) payload packing — used by the length-prefixed live wire
# --------------------------------------------------------------------------

#: Status strings ↔ one-byte codes (append-only: codes are wire format).
_STATUS_CODES = {Status.NORMAL.value: 0, Status.TENTATIVE.value: 1}
_STATUS_NAMES = {code: name for name, code in _STATUS_CODES.items()}

#: ControlType strings ↔ one-byte codes (append-only: wire format).
_CTYPE_CODES = {ControlType.CK_BGN.value: 0, ControlType.CK_REQ.value: 1,
                ControlType.CK_END.value: 2}
_CTYPE_NAMES = {code: name for name, code in _CTYPE_CODES.items()}

#: Piggyback head: version B, csn I, stat-code B, tent-entry count H.
_PB_HEAD = struct.Struct("!BIBH")
#: One tent-set entry (a pid).
_PB_ENTRY = struct.Struct("!I")
#: Control message: version B, ctype-code B, csn I.
_CM_PACK = struct.Struct("!BBI")


def pack_piggyback(data: dict[str, Any]) -> bytes:
    """Struct-pack the dict form of a piggyback (version stamp carried
    through, so ``unpack_piggyback(pack_piggyback(d))`` round-trips the
    dict exactly)."""
    _check_wire_version(data, "piggyback")
    tent = sorted(data["tent_set"])
    if len(tent) > 0xFFFF:
        raise ValueError(
            f"piggyback tent_set of {len(tent)} entries exceeds the "
            f"wire limit (65535)")
    head = _PB_HEAD.pack(data["v"], data["csn"],
                         _STATUS_CODES[data["stat"]], len(tent))
    return head + b"".join(_PB_ENTRY.pack(pid) for pid in tent)


def unpack_piggyback(buf: bytes, offset: int = 0
                     ) -> tuple[dict[str, Any], int]:
    """Inverse of :func:`pack_piggyback`; returns ``(dict, next_offset)``."""
    version, csn, stat_code, count = _PB_HEAD.unpack_from(buf, offset)
    offset += _PB_HEAD.size
    if stat_code not in _STATUS_NAMES:
        raise ValueError(f"unknown piggyback status code {stat_code}")
    tent = [_PB_ENTRY.unpack_from(buf, offset + i * _PB_ENTRY.size)[0]
            for i in range(count)]
    offset += count * _PB_ENTRY.size
    data = {"v": version, "csn": csn, "stat": _STATUS_NAMES[stat_code],
            "tent_set": tent}
    _check_wire_version(data, "piggyback")
    return data, offset


def pack_control(data: dict[str, Any]) -> bytes:
    """Struct-pack the dict form of a ``CM(type, csn)`` control message."""
    _check_wire_version(data, "control message")
    return _CM_PACK.pack(data["v"], _CTYPE_CODES[data["ctype"]],
                         data["csn"])


def unpack_control(buf: bytes, offset: int = 0
                   ) -> tuple[dict[str, Any], int]:
    """Inverse of :func:`pack_control`; returns ``(dict, next_offset)``."""
    version, ctype_code, csn = _CM_PACK.unpack_from(buf, offset)
    if ctype_code not in _CTYPE_NAMES:
        raise ValueError(f"unknown control type code {ctype_code}")
    data = {"v": version, "ctype": _CTYPE_NAMES[ctype_code], "csn": csn}
    _check_wire_version(data, "control message")
    return data, offset + _CM_PACK.size


def log_entry_to_dict(entry: LogEntry) -> dict[str, Any]:
    """JSON-ready form of one selective-log entry."""
    return {"uid": entry.uid, "bytes": entry.nbytes,
            "direction": entry.direction, "time": entry.time}


def log_entry_from_dict(data: dict[str, Any]) -> LogEntry:
    """Inverse of :func:`log_entry_to_dict`."""
    return LogEntry(uid=data["uid"], nbytes=data["bytes"],
                    direction=data["direction"], time=data["time"])


def checkpoint_to_dict(fc: FinalizedCheckpoint) -> dict[str, Any]:
    """Plain-dict form of one finalized checkpoint (JSON-ready)."""
    log = fc.log_entries
    return {
        "format_version": FORMAT_VERSION,
        "pid": fc.pid,
        "csn": fc.csn,
        "finalized_at": fc.finalized_at,
        "reason": fc.reason,
        "tentative": {
            "taken_at": fc.tentative.taken_at,
            "state_bytes": fc.tentative.state_bytes,
            "flushed_at": fc.tentative.flushed_at,
            "digest": fc.tentative.digest,
            "full": fc.tentative.full,
        },
        # log_entry_to_dict's shape, read straight off the columns.
        "log": [{"uid": uid, "bytes": nbytes, "direction": direction,
                 "time": time}
                for uid, nbytes, direction, time in zip(
                    log.uids, log.nbytes, log.directions, log.times)],
        "new_sent_uids": sorted(fc.new_sent_uids),
        "new_recv_uids": sorted(fc.new_recv_uids),
    }


def checkpoint_from_dict(data: dict[str, Any]) -> FinalizedCheckpoint:
    """Inverse of :func:`checkpoint_to_dict` (validates the version)."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    t = data["tentative"]
    ct = TentativeCheckpoint(
        pid=data["pid"], csn=data["csn"], taken_at=t["taken_at"],
        state_bytes=t["state_bytes"], flushed_at=t["flushed_at"],
        digest=t.get("digest", 0), full=t.get("full", True))
    log = LogSet()
    for e in data["log"]:
        log.append(e["uid"], e["bytes"], e["direction"], e["time"])
    return FinalizedCheckpoint(
        pid=data["pid"], csn=data["csn"], tentative=ct,
        finalized_at=data["finalized_at"], log_entries=log,
        new_sent_uids=frozenset(data["new_sent_uids"]),
        new_recv_uids=frozenset(data["new_recv_uids"]),
        reason=data["reason"])


def dumps_checkpoint(fc: FinalizedCheckpoint) -> str:
    """JSON string of one checkpoint."""
    return json.dumps(checkpoint_to_dict(fc), sort_keys=True)


def loads_checkpoint(payload: str) -> FinalizedCheckpoint:
    """Parse a checkpoint produced by :func:`dumps_checkpoint`."""
    return checkpoint_from_dict(json.loads(payload))


def export_run(runtime: Any, *, gc_view: bool = False) -> dict[str, Any]:
    """Export finalized checkpoints of a run, keyed like a checkpoint
    directory (``"P<pid>/C<csn>"``), plus the complete-S_k index.

    ``gc_view=False`` (default) exports the full history every host still
    holds in memory — what the verification layer consumes.
    ``gc_view=True`` exports only the generations still *retained on stable
    storage* after garbage collection (each host's live ``_held_gens``):
    the directory a recovery orchestrator would actually find.
    """
    files: dict[str, Any] = {}
    for pid, host in runtime.hosts.items():
        held = getattr(host, "_held_gens", None)
        for csn, fc in host.finalized.items():
            if gc_view and held is not None and csn not in held:
                continue
            files[f"P{pid}/C{csn}"] = checkpoint_to_dict(fc)
    return {
        "format_version": FORMAT_VERSION,
        "n": runtime.n,
        "gc_view": gc_view,
        "complete_global_checkpoints": runtime.finalized_seqs(),
        "checkpoints": files,
    }


def import_run(data: dict[str, Any]) -> dict[int, dict[int, FinalizedCheckpoint]]:
    """Parse an :func:`export_run` payload into pid -> csn -> checkpoint."""
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported export format version")
    out: dict[int, dict[int, FinalizedCheckpoint]] = {}
    for key, blob in data["checkpoints"].items():
        fc = checkpoint_from_dict(blob)
        out.setdefault(fc.pid, {})[fc.csn] = fc
    return out
