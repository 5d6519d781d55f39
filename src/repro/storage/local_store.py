"""Per-process local (volatile) store for tentative checkpoints and logs.

The optimistic protocol's whole point: the tentative checkpoint and the
message log live in *local memory* first and move to stable storage at the
process's convenience.  :class:`LocalStore` models that memory: it tracks
what is held, its size, and the high-water mark — the protocol's memory
overhead, which experiments report alongside the storage-contention wins
(nothing is free; the paper trades server contention for local buffering).

Local holds are volatile: a crash loses them, which is why recovery can only
use *finalized* checkpoints (see :mod:`repro.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class LocalItem:
    """One buffered object (a tentative checkpoint or a logged message)."""

    label: str
    nbytes: int
    stored_at: float
    payload: Any = field(default=None, repr=False)


class LocalStore:
    """Volatile per-process buffer with byte accounting."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.items: dict[str, LocalItem] = {}
        self._bytes = 0
        self.max_bytes = 0
        #: Cumulative bytes ever buffered (for turnover statistics).
        self.total_buffered = 0

    def put(self, label: str, nbytes: int, at: float,
            payload: Any = None) -> LocalItem:
        """Buffer an object; replaces any same-labelled previous object."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.discard(label)
        item = LocalItem(label=label, nbytes=nbytes, stored_at=at,
                         payload=payload)
        self.items[label] = item
        self._bytes += nbytes
        self.total_buffered += nbytes
        if self._bytes > self.max_bytes:
            self.max_bytes = self._bytes
        return item

    def pop(self, label: str) -> LocalItem:
        """Remove and return a buffered object (KeyError if absent)."""
        item = self.items.pop(label)
        self._bytes -= item.nbytes
        return item

    def discard(self, label: str) -> bool:
        """Remove if present; returns whether something was removed."""
        if label in self.items:
            self.pop(label)
            return True
        return False

    def clear(self) -> None:
        """Drop everything (models a crash wiping volatile memory)."""
        self.items.clear()
        self._bytes = 0

    @property
    def bytes_held(self) -> int:
        """Current buffered bytes."""
        return self._bytes

    def __contains__(self, label: str) -> bool:
        return label in self.items

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LocalStore(pid={self.pid}, items={len(self.items)}, "
                f"bytes={self._bytes}, max={self.max_bytes})")
