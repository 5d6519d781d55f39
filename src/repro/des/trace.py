"""Structured trace recording.

Every interesting occurrence in a simulation — a send, a delivery, a
tentative checkpoint, a finalization, a storage write — is appended to a
:class:`TraceRecorder` as a :class:`TraceRecord`.  The trace serves three
masters:

* **tests** assert exact orderings (e.g. the paper's Figure 2 narrative);
* the **causality** package replays traces to build happened-before graphs
  and check global-checkpoint consistency;
* the **metrics** package derives series (queue length over time, etc.).

Records are cheap tuples-with-names; filtering helpers return lists so tests
can index and slice naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class TraceRecord:
    """One trace entry (treated as immutable; slotted and not ``frozen`` so
    that building one — once per recorded event — is plain attribute stores).

    Attributes
    ----------
    time:
        Simulated timestamp.
    kind:
        Dotted event-kind string, e.g. ``"ckpt.tentative"``, ``"msg.send"``,
        ``"storage.write.start"``.  Dots give a cheap hierarchy that
        ``TraceRecorder.filter(prefix=...)`` exploits.
    process:
        Integer process id the record belongs to, or ``-1`` for records not
        attributable to a process (e.g. the storage server).
    data:
        Free-form payload mapping; keys are record-kind specific and are
        documented where the record is emitted.
    seq:
        Global insertion index, which totally orders records even within one
        instant.
    """

    time: float
    kind: str
    process: int
    data: dict[str, Any] = field(default_factory=dict)
    seq: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(t={self.time:.6g}, {self.kind!r}, "
                f"p={self.process}, {self.data})")


class TraceRecorder:
    """Append-only store of :class:`TraceRecord` entries with query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._seq = 0
        #: Optional live subscribers: callables invoked on every record.
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        #: Kind-filtered subscribers: called only for matching records,
        #: so rare-kind listeners stay off the per-message hot path.
        self._kind_subscribers: dict[str, list[Callable[[TraceRecord],
                                                        None]]] = {}

    # -- recording ---------------------------------------------------------

    def record(self, time: float, kind: str, process: int = -1, /,
               **data: Any) -> None:
        """Append a record (no-op when the recorder is disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        rec = TraceRecord(time, kind, process, data, self._seq)
        self.records.append(rec)
        for sub in self._subscribers:
            sub(rec)
        kind_subs = self._kind_subscribers.get(kind)
        if kind_subs:
            for sub in kind_subs:
                sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None], *,
                  kinds: tuple[str, ...] | None = None) -> None:
        """Register a live subscriber (metrics collectors use this).

        With ``kinds``, the callable fires only for records of those
        exact kinds (no prefix matching) — use this for listeners that
        ignore the high-volume ``msg.*`` traffic.
        """
        if kinds is None:
            self._subscribers.append(fn)
        else:
            for kind in kinds:
                self._kind_subscribers.setdefault(kind, []).append(fn)

    # -- querying ----------------------------------------------------------

    def filter(self, kind: str | None = None, *, prefix: str | None = None,
               process: int | None = None) -> list[TraceRecord]:
        """Return records matching all given criteria.

        ``kind`` matches exactly; ``prefix`` matches ``kind == prefix`` or
        ``kind.startswith(prefix + '.')`` (so ``prefix="msg"`` catches
        ``msg.send`` and ``msg.deliver`` but not ``msgx``).
        """
        out = []
        dot = None if prefix is None else prefix + "."
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if prefix is not None and not (rec.kind == prefix
                                           or rec.kind.startswith(dot)):
                continue
            if process is not None and rec.process != process:
                continue
            out.append(rec)
        return out

    def first(self, kind: str, process: int | None = None) -> TraceRecord | None:
        """First record of ``kind`` (optionally for one process), or None."""
        for rec in self.records:
            if rec.kind == kind and (process is None or rec.process == process):
                return rec
        return None

    def last(self, kind: str, process: int | None = None) -> TraceRecord | None:
        """Last record of ``kind`` (optionally for one process), or None."""
        for rec in reversed(self.records):
            if rec.kind == kind and (process is None or rec.process == process):
                return rec
        return None

    def count(self, kind: str | None = None, *, prefix: str | None = None,
              process: int | None = None) -> int:
        """Number of matching records."""
        return len(self.filter(kind, prefix=prefix, process=process))

    def kinds(self) -> dict[str, int]:
        """Histogram of record kinds (diagnostics and quick assertions)."""
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def signature(self) -> tuple[tuple[float, str, int], ...]:
        """A hashable fingerprint of the trace (time, kind, process).

        Two runs with identical configuration and seed must produce equal
        signatures — the determinism invariant's test hook.
        """
        return tuple((r.time, r.kind, r.process) for r in self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecorder(records={len(self.records)}, enabled={self.enabled})"
