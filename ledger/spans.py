"""In-memory spans around the ledger's own calls into each public stage.

Spans live in a list until the traced pass ends, then go out as
``spans.jsonl`` (one object per line: ``id``, ``name``, ``start``,
``end``, ``parent``, plus free attributes).  A span's *self time* is its
duration minus the part of its interval covered by its child spans —
overlapping children are counted once.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class SpanRecorder:
    """Append-only span store with parent tracking for nested ``span()``."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs: Any) -> int:
        """Record a finished span from explicit timestamps; returns its id."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent, **attrs})
        return span_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the ``with`` body; nests under the enclosing ``span()``."""
        parent = self._stack[-1] if self._stack else None
        span_id = self.add(name, 0.0, 0.0, parent, **attrs)
        record = self.spans[span_id]
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out: dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            edge = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start = max(start, edge)
                end = min(end, s["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write_jsonl(self, path: str | Path) -> None:
        """One JSON object per span, in recording order."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
