"""Counters, gauges and histograms with deterministic snapshots.

A :class:`MetricsRegistry` is the accumulation side of the observability
layer: hosts bump counters and record histogram observations as the run
progresses, and :meth:`MetricsRegistry.snapshot` reduces everything to a
plain sorted-key dict — the payload of a ``metrics`` trace event.

Determinism contract: a snapshot is a pure function of the *multiset of
observations*, never of wall time, insertion order, or process identity.
Two runs of the same seeded config — serial or under ``--jobs 2`` —
produce byte-identical ``json.dumps(snapshot, sort_keys=True)`` output
(this is tested).  Histograms therefore keep only order-insensitive
aggregates (count/sum/min/max), not raw sample lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Counter:
    """A monotonically increasing count (messages sent, rounds done, …)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time level (pending writes, log bytes held, …)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the level with ``value``."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the level by ``delta`` (either sign)."""
        self.value += delta


@dataclass
class Histogram:
    """Order-insensitive distribution summary of observed values.

    Keeps only aggregates so that the snapshot is identical however the
    observations were interleaved (the parallel-executor determinism
    contract); quantiles belong to the span report, which works on the
    full event stream.
    """

    name: str
    count: int = 0
    sum: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        """Record one sample into the aggregates."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        """The snapshot row: count/sum/min/max/mean (zeros when empty)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "mean": self.mean}


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named :class:`Counter`, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The named :class:`Gauge`, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        """The named :class:`Histogram`, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one (counters add,
        gauges take the incoming value, histogram aggregates combine).

        Lets the harness aggregate per-run registries into one batch
        registry without caring which worker produced which run.
        """
        for name in sorted(snapshot.get("counters", {})):
            self.counter(name).inc(float(snapshot["counters"][name]))
        for name in sorted(snapshot.get("gauges", {})):
            self.gauge(name).set(float(snapshot["gauges"][name]))
        for name in sorted(snapshot.get("histograms", {})):
            h = snapshot["histograms"][name]
            mine = self.histogram(name)
            if h["count"]:
                mine.count += int(h["count"])
                mine.sum += float(h["sum"])
                mine.min = min(mine.min, float(h["min"]))
                mine.max = max(mine.max, float(h["max"]))

    def snapshot(self) -> dict[str, Any]:
        """All metrics as a plain dict with deterministically sorted keys."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }
