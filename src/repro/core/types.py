"""Core protocol types: statuses, piggyback, checkpoint objects.

Mirrors the paper's notation (§3.1, §3.3):

* ``Status`` — ``stat_i`` ∈ {normal, tentative};
* ``Piggyback`` — the ``(csn_i, stat_i, tentSet_i)`` triple carried on every
  application message (§3.4.2);
* ``ControlType`` — ``CK_BGN`` / ``CK_REQ`` / ``CK_END`` (§3.5.1);
* ``TentativeCheckpoint`` — ``CT_{i,k}``;
* ``FinalizedCheckpoint`` — ``C_{i,k} = CT_{i,k} ∪ logSet_{i,k}``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Status(enum.Enum):
    """``stat_i`` — the paper's two process statuses."""

    NORMAL = "normal"
    TENTATIVE = "tentative"


class ControlType(enum.Enum):
    """Control-message types of the generalized algorithm (§3.5.1)."""

    CK_BGN = "CK_BGN"
    CK_REQ = "CK_REQ"
    CK_END = "CK_END"


def piggyback_bytes(n: int) -> int:
    """Wire cost of a piggyback for an N-process system.

    4 bytes of csn + 1 byte of status + an N-bit membership bitmap —
    the natural dense encoding; what the overhead experiments charge.
    Module-level so hot senders can price the piggyback without holding
    an instance.
    """
    return 4 + 1 + math.ceil(n / 8)


@dataclass(frozen=True, slots=True)
class Piggyback:
    """``(M.csn, M.stat, M.tentSet)`` attached to an application message.

    ``tent_set`` is a frozenset of process ids — the sender's knowledge of
    who has taken a tentative checkpoint with sequence number ``csn``.

    Instances are interned per state machine (see
    :meth:`repro.core.state_machine.OptimisticStateMachine.piggyback`), so
    one is built per *state change*, not per send.
    """

    csn: int
    stat: Status
    tent_set: frozenset[int]

    def encoded_bytes(self, n: int) -> int:
        """Wire cost of the piggyback; see :func:`piggyback_bytes`."""
        return piggyback_bytes(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        members = ",".join(f"P{p}" for p in sorted(self.tent_set))
        return f"Piggyback(csn={self.csn}, {self.stat.value}, {{{members}}})"


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """``CM(type, csn)`` — §3.5.1's two-field control message."""

    ctype: ControlType
    csn: int

    #: Wire size: 1 byte of type + 4 bytes of csn + small framing.
    #: (Unannotated, so it stays a class attribute under ``slots=True``.)
    ENCODED_BYTES = 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CM({self.ctype.value}, {self.csn})"


@dataclass(slots=True)
class LogEntry:
    """One message in ``logSet_{i,k}``: direction + identity + size."""

    uid: int
    nbytes: int
    direction: str  # "sent" | "recv"
    time: float


class LogSet:
    """``logSet_{i,k}`` as columns: one list per :class:`LogEntry` field.

    A run logs a message per send or receive inside every ``CT``–``CFE``
    window, and the finalized checkpoints keep them all; as columns of ints,
    floats and interned strings a logged message allocates no object the
    cyclic collector has to track or scan.  Entries stay in the order they
    were appended (processing order — what replay needs).  Iteration and
    indexing build :class:`LogEntry` views for cold readers; hot code reads
    the columns.
    """

    __slots__ = ("uids", "nbytes", "directions", "times", "total_bytes")

    def __init__(self, entries: Iterable[LogEntry] = ()) -> None:
        self.uids: list[int] = []
        self.nbytes: list[int] = []
        self.directions: list[str] = []
        self.times: list[float] = []
        #: Running sum of ``nbytes`` (the log's size, read per append).
        self.total_bytes = 0
        for e in entries:
            self.append(e.uid, e.nbytes, e.direction, e.time)

    def append(self, uid: int, nbytes: int, direction: str,
               time: float) -> None:
        """Log one message (``logSet ∪= {M}``)."""
        self.uids.append(uid)
        self.nbytes.append(nbytes)
        self.directions.append(direction)
        self.times.append(time)
        self.total_bytes += nbytes

    def copy(self) -> "LogSet":
        """An independent copy (column slices, no per-entry work)."""
        new = LogSet.__new__(LogSet)
        new.uids = self.uids[:]
        new.nbytes = self.nbytes[:]
        new.directions = self.directions[:]
        new.times = self.times[:]
        new.total_bytes = self.total_bytes
        return new

    def without(self, uid: int) -> "LogSet":
        """A copy minus every entry of message ``uid`` — the paper's
        ``logSet − {M}``."""
        new = self.copy()
        uids = new.uids
        while uid in uids:
            i = uids.index(uid)
            new.total_bytes -= new.nbytes[i]
            del uids[i], new.nbytes[i], new.directions[i], new.times[i]
        return new

    def __len__(self) -> int:
        return len(self.uids)

    def __iter__(self) -> Iterator[LogEntry]:
        for row in zip(self.uids, self.nbytes, self.directions, self.times):
            yield LogEntry(*row)

    def __getitem__(self, i: int) -> LogEntry:
        return LogEntry(self.uids[i], self.nbytes[i], self.directions[i],
                        self.times[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSet):
            return NotImplemented
        return (self.uids == other.uids and self.nbytes == other.nbytes
                and self.directions == other.directions
                and self.times == other.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogSet({len(self)} msgs, {self.total_bytes}B)"


def fold_digest(digest: int, uid: int) -> int:
    """One step of the application-state digest.

    The simulated "application state" of a process is modelled as a fold
    over the uids of the messages it has processed, in processing order —
    a stand-in for arbitrary deterministic state evolution.  Recovery
    semantics become *checkable*: restoring ``CT`` and replaying the
    selective log must reproduce the digest the checkpoint claims
    (see :meth:`FinalizedCheckpoint.replay_digest` and the recovery tests).
    """
    # Simple split-mix style step: deterministic, order-sensitive, cheap.
    return (digest * 1_000_003 + uid + 0x9E3779B9) % (1 << 61)


@dataclass
class TentativeCheckpoint:
    """``CT_{i,k}`` — a process state captured optimistically."""

    pid: int
    csn: int
    taken_at: float
    state_bytes: int
    #: Set once the tentative state has been flushed to stable storage
    #: (may happen any time between ``taken_at`` and finalization).
    flushed_at: float | None = None
    #: Application-state digest at capture time (see :func:`fold_digest`).
    digest: int = 0
    #: Full state capture (True) or an incremental delta (False) — deltas
    #: are restorable only together with the chain back to the last full
    #: capture (see ``OptimisticConfig.incremental_every``).
    full: bool = True

    @property
    def flushed(self) -> bool:
        return self.flushed_at is not None


@dataclass
class FinalizedCheckpoint:
    """``C_{i,k} = CT_{i,k} ∪ logSet_{i,k}`` — a permanent local checkpoint.

    ``new_sent_uids`` / ``new_recv_uids`` are the application-message uids
    whose send/receive this checkpoint records *beyond* ``C_{i,k-1}``
    (recorded sets are monotone in k, so increments suffice; the verifier
    folds each in once).

    ``log_entries`` is always a :class:`LogSet`; any iterable of
    :class:`LogEntry` passed in is converted.  It is fixed once the
    checkpoint is built.
    """

    pid: int
    csn: int
    tentative: TentativeCheckpoint
    finalized_at: float
    log_entries: LogSet = field(default_factory=LogSet)
    new_sent_uids: frozenset[int] = field(default_factory=frozenset)
    new_recv_uids: frozenset[int] = field(default_factory=frozenset)
    #: How the finalization was triggered (for diagnostics / experiments):
    #: "piggyback.allset", "piggyback.peer_normal", "piggyback.next_csn",
    #: "control.ck_req", "control.ck_end", or "control.next_csn".
    reason: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.log_entries, LogSet):
            self.log_entries = LogSet(self.log_entries)

    @property
    def log_bytes(self) -> int:
        """Total bytes of the selective message log."""
        return self.log_entries.total_bytes

    @functools.cached_property
    def logged_uids(self) -> frozenset[int]:
        """uids of every message (sent or received) in ``logSet_{i,k}``
        (cached: the log is fixed)."""
        return frozenset(self.log_entries.uids)

    def replay_digest(self) -> int:
        """The application state recovery reconstructs from this checkpoint.

        Restore ``CT`` (its capture-time digest), then replay the logged
        *received* messages in their original processing order.  Note this
        deliberately differs from the live state at ``CFE`` whenever the
        paper's ``logSet - {M}`` exclusion applied: the trigger message
        ``M`` was processed before finalization but is NOT replayable —
        exactly what keeps ``S_k`` orphan-free (its sender's ``C_{j,k}``
        predates sending ``M``).
        """
        digest = self.tentative.digest
        # The log preserves processing order (appended as it happened).
        log = self.log_entries
        for uid, direction in zip(log.uids, log.directions):
            if direction == "recv":
                digest = fold_digest(digest, uid)
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"C_({self.pid},{self.csn})[log={len(self.log_entries)}msg/"
                f"{self.log_bytes}B, at={self.finalized_at:.4g}, {self.reason}]")
