"""Structured trace recording.

Every interesting occurrence in a simulation — a send, a delivery, a
tentative checkpoint, a finalization, a storage write — is appended to a
:class:`TraceRecorder`.  The trace serves three masters:

* **tests** assert exact orderings (e.g. the paper's Figure 2 narrative);
* the **causality** package replays traces to build happened-before graphs
  and check global-checkpoint consistency;
* the **metrics** package derives series (queue length over time, etc.).

The recorder stores columns, not records: time, interned kind and process
per row, and the payload as a values tuple against an interned key tuple.
A faulted run records tens of thousands of events, so no row owns an
object beyond its values tuple.  :class:`TraceRecord` is the view that
iteration, queries and subscribers receive, built on read; hot readers
take :meth:`TraceRecorder.select` rows instead.  Filtering helpers return
lists so tests can index and slice naturally.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import merge
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, overload

_NO_VALUES: tuple[Any, ...] = ()


@dataclass(slots=True)
class TraceRecord:
    """One trace entry (treated as immutable): a view of one recorder row.

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
        Global insertion index (row number + 1), which totally orders
        records even within one instant.
    """

    time: float
    kind: str
    process: int
    data: dict[str, Any] = field(default_factory=dict)
    seq: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(t={self.time:.6g}, {self.kind!r}, "
                f"p={self.process}, {self.data})")


class _Records(Sequence[TraceRecord]):
    """``TraceRecorder.records``: the rows as a read-only sequence of
    views (indexing and slicing build only the views asked for)."""

    __slots__ = ("_trace",)

    def __init__(self, trace: TraceRecorder) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    @overload
    def __getitem__(self, i: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, i: slice) -> list[TraceRecord]: ...

    def __getitem__(self, i: int | slice) -> TraceRecord | list[TraceRecord]:
        rows = range(len(self._trace))        # [i] raises the IndexError
        if isinstance(i, slice):
            return self._trace._views(rows[i])
        return self._trace._view(rows[i])

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._trace)


class TraceRecorder:
    """Append-only columnar trace with query helpers.

    A per-kind row index serves the kind queries; it is extended lazily on
    the first query after new rows, so :meth:`record` does no index work
    and ``filter(kind)``, :meth:`first`, :meth:`last` and :meth:`count` of
    a kind cost O(matches).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: The columns, one entry per row.  Times are stored as C doubles
        #: (an int time reads back as the equal float).
        self._time: array[float] = array("d")
        self._kind: array[int] = array("I")
        self._process: array[int] = array("q")
        self._keys: array[int] = array("I")
        self._values: list[tuple[Any, ...]] = []
        #: Interned kinds and key tuples: id -> value, value -> id.
        self._kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self._key_tuples: list[tuple[str, ...]] = [()]
        self._key_ids: dict[tuple[str, ...], int] = {(): 0}
        #: Per kind id, its row numbers; rows below ``_indexed`` are in.
        self._rows: list[array[int]] = []
        self._indexed = 0
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
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            kind_id = self._intern_kind(kind)
        if data:
            keys = tuple(data)
            key_id = self._key_ids.get(keys)
            if key_id is None:
                key_id = self._key_ids[keys] = len(self._key_tuples)
                self._key_tuples.append(keys)
            values = tuple(data.values())
        else:
            key_id, values = 0, _NO_VALUES
        self._time.append(time)
        self._kind.append(kind_id)
        self._process.append(process)
        self._keys.append(key_id)
        self._values.append(values)
        if self._subscribers or kind in self._kind_subscribers:
            rec = TraceRecord(time, kind, process, data, len(self._values))
            for sub in self._subscribers:
                sub(rec)
            for sub in self._kind_subscribers.get(kind, ()):
                sub(rec)

    def _intern_kind(self, kind: str) -> int:
        kind_id = self._kind_ids[kind] = len(self._kind_names)
        self._kind_names.append(kind)
        self._rows.append(array("I"))
        return kind_id

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

    # -- the columns and the kind index --------------------------------------

    def _view(self, row: int) -> TraceRecord:
        values = self._values[row]
        data = (dict(zip(self._key_tuples[self._keys[row]], values))
                if values else {})
        return TraceRecord(self._time[row], self._kind_names[self._kind[row]],
                           self._process[row], data, row + 1)

    def _views(self, rows: Iterable[int]) -> list[TraceRecord]:
        return [self._view(row) for row in rows]

    def _index(self) -> list[array[int]]:
        """The per-kind row lists, extended over rows recorded since the
        last query."""
        kinds, rows = self._kind, self._rows
        for row in range(self._indexed, len(kinds)):
            rows[kinds[row]].append(row)
        self._indexed = len(kinds)
        return rows

    def _kind_rows(self, kind: str) -> Sequence[int]:
        kind_id = self._kind_ids.get(kind)
        return () if kind_id is None else self._index()[kind_id]

    def _matching(self, kind: str | None, prefix: str | None,
                  process: int | None) -> Sequence[int]:
        """Row numbers, in trace order, of the records matching every
        given criterion (see :meth:`filter`)."""
        if kind is None and prefix is None:
            rows: Sequence[int] = range(len(self))
        else:
            dot = f"{prefix}."
            index = self._index()
            hits = [index[kind_id]
                    for kind_id, name in enumerate(self._kind_names)
                    if (kind is None or name == kind)
                    and (prefix is None or name == prefix
                         or name.startswith(dot))]
            rows = hits[0] if len(hits) == 1 else list(merge(*hits))
        if process is not None:
            procs = self._process
            rows = [row for row in rows if procs[row] == process]
        return rows

    # -- querying ----------------------------------------------------------

    @property
    def records(self) -> Sequence[TraceRecord]:
        """Every record, as a read-only sequence of views."""
        return _Records(self)

    def select(self, kinds: str | tuple[str, ...], *names: str
               ) -> Iterator[tuple[Any, ...]]:
        """``(time, kind, process, data[name], ...)`` for every record of
        ``kinds`` (one kind or a tuple), in trace order, building no view;
        a name absent from a record's payload reads ``None``."""
        index = self._index()
        kind_ids = [self._kind_ids[k] for k in
                    ((kinds,) if isinstance(kinds, str) else kinds)
                    if k in self._kind_ids]
        rows = (index[kind_ids[0]] if len(kind_ids) == 1
                else merge(*(index[k] for k in kind_ids)))
        times, kind_col, procs = self._time, self._kind, self._process
        key_col, values, kind_names = self._keys, self._values, self._kind_names
        getters: dict[int, Callable[[tuple[Any, ...]], tuple[Any, ...]]] = {}
        for row in rows:
            key_id = key_col[row]
            get = getters.get(key_id)
            if get is None:
                get = getters[key_id] = self._getter(key_id, names)
            yield (times[row], kind_names[kind_col[row]], procs[row],
                   *get(values[row]))

    def _getter(self, key_id: int, names: tuple[str, ...]
                ) -> Callable[[tuple[Any, ...]], tuple[Any, ...]]:
        """Values tuple -> the ``names`` fields of one key tuple (absent
        ones ``None``)."""
        if not names:
            return lambda values: _NO_VALUES
        keys = self._key_tuples[key_id]
        absent = len(keys)
        pos = [keys.index(n) if n in keys else absent for n in names]
        pick = itemgetter(*pos)
        if len(names) == 1:
            if pos[0] == absent:
                return lambda values: (None,)
            return lambda values: (pick(values),)
        if absent in pos:
            return lambda values: pick(values + (None,))
        return pick

    def filter(self, kind: str | None = None, *, prefix: str | None = None,
               process: int | None = None) -> list[TraceRecord]:
        """Return records matching all given criteria.

        ``kind`` matches exactly; ``prefix`` matches ``kind == prefix`` or
        ``kind.startswith(prefix + '.')`` (so ``prefix="msg"`` catches
        ``msg.send`` and ``msg.deliver`` but not ``msgx``).
        """
        return self._views(self._matching(kind, prefix, process))

    def first(self, kind: str, process: int | None = None) -> TraceRecord | None:
        """First record of ``kind`` (optionally for one process), or None."""
        return self._find(self._kind_rows(kind), process)

    def last(self, kind: str, process: int | None = None) -> TraceRecord | None:
        """Last record of ``kind`` (optionally for one process), or None."""
        return self._find(reversed(self._kind_rows(kind)), process)

    def _find(self, rows: Iterable[int],
              process: int | None) -> TraceRecord | None:
        procs = self._process
        for row in rows:
            if process is None or procs[row] == process:
                return self._view(row)
        return None

    def count(self, kind: str | None = None, *, prefix: str | None = None,
              process: int | None = None) -> int:
        """Number of matching records."""
        return len(self._matching(kind, prefix, process))

    def kinds(self) -> dict[str, int]:
        """Histogram of record kinds (diagnostics and quick assertions)."""
        return {name: len(rows)
                for name, rows in zip(self._kind_names, self._index())}

    def signature(self) -> tuple[tuple[float, str, int], ...]:
        """A hashable fingerprint of the trace (time, kind, process).

        Two runs with identical configuration and seed must produce equal
        signatures — the determinism invariant's test hook.
        """
        return tuple(zip(self._time, map(self._kind_names.__getitem__,
                                         self._kind), self._process))

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in range(len(self)):
            yield self._view(row)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecorder(records={len(self)}, enabled={self.enabled})"
