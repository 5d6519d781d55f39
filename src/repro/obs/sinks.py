"""Trace sinks: JSONL export, in-memory capture, terminal dashboard.

Sinks receive already-built :class:`~repro.obs.schema.TraceEvent`
objects from a :class:`~repro.obs.tracer.Tracer`; they never read a
clock themselves (events carry their host's timestamp), so every sink
here is deterministic and REP001-clean.  The dashboard refreshes on
*event count*, not elapsed time, for the same reason.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Callable

from .schema import TraceEvent, encode_event


class JsonlSink:
    """Append events to a JSONL file, one sorted-key object per line.

    Sorted keys + explicit timestamps make the file byte-identical across
    reruns of the same seeded config — the property the ``--jobs 2``
    determinism test asserts.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Any | None = self.path.open("w", encoding="utf-8")

    def write(self, event: TraceEvent) -> None:
        """Append one event as a compact sorted-key JSON line."""
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        json.dump(encode_event(event), self._fh, sort_keys=True,
                  separators=(",", ":"))
        self._fh.write("\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


class MemorySink:
    """Keep events in a list — the test double and the report's feeder."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        """Keep the event object."""
        self.events.append(event)

    def encoded(self) -> list[dict[str, Any]]:
        """Every captured event in wire (dict) form."""
        return [encode_event(e) for e in self.events]


class DashboardSink:
    """A line-oriented run dashboard over any text stream.

    Every ``refresh_every`` events it prints one status line summarizing
    the run so far: host time, event count, open/closed span tallies per
    phase, and the latest counter values.  Count-based refresh (rather
    than a wall-clock timer) keeps output identical across reruns and
    keeps this module free of real-time reads.

    ``stream`` is anything with a ``write(str)`` method — stderr (the
    CLI default), an ``io.StringIO``, a socket file wrapper, a log
    adapter; ``flush`` is optional and called only when present, so a
    minimal text sink works unmodified.
    """

    def __init__(self, stream: Any = None, *,
                 refresh_every: int = 200) -> None:
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if stream is None:
            import sys
            stream = sys.stderr
        if not callable(getattr(stream, "write", None)):
            raise TypeError(
                f"stream must have a write(str) method, got {stream!r}")
        self.stream = stream
        self.refresh_every = refresh_every
        self._seen = 0
        self._open: dict[str, int] = {}
        self._closed: dict[str, int] = {}
        self._counters: dict[str, float] = {}
        self._latest_t = 0.0

    def write(self, event: TraceEvent) -> None:
        """Fold the event into the tallies; render every Nth event."""
        self._seen += 1
        self._latest_t = event.t
        if event.ev == "span.start" and event.phase:
            self._open[event.phase] = self._open.get(event.phase, 0) + 1
        elif event.ev == "span.end" and event.phase:
            self._open[event.phase] = max(
                0, self._open.get(event.phase, 0) - 1)
            self._closed[event.phase] = self._closed.get(event.phase, 0) + 1
        elif event.ev == "counter" and event.name:
            self._counters[event.name] = (
                self._counters.get(event.name, 0.0) + (event.value or 0.0))
        if self._seen % self.refresh_every == 0:
            self._render()

    def _render(self) -> None:
        spans = " ".join(
            f"{phase}={self._closed.get(phase, 0)}"
            + (f"(+{self._open[phase]} open)" if self._open.get(phase) else "")
            for phase in sorted(set(self._closed) | set(self._open)))
        counters = " ".join(f"{name}={self._counters[name]:g}"
                            for name in sorted(self._counters)[:4])
        self.stream.write(
            f"[trace t={self._latest_t:10.3f}] {self._seen} events"
            + (f" | {spans}" if spans else "")
            + (f" | {counters}" if counters else "") + "\n")

    def close(self) -> None:
        """Render any unrendered remainder and flush if the stream can."""
        if self._seen % self.refresh_every != 0:
            self._render()
        flush = getattr(self.stream, "flush", None)
        if callable(flush):
            flush()


class Subscription:
    """One subscriber's bounded event queue on a :class:`BroadcastSink`.

    Events accumulate in a deque until the subscriber drains them with
    :meth:`pop_all`; once ``maxlen`` events are waiting, further events
    are *dropped* (never blocking the emitter) and itemized in
    :attr:`dropped_by_cause` — the same accounting discipline as the
    live transport's ``dropped_by_cause``.

    ``wake`` is how a parked consumer learns there is something to do:
    it is called when the queue goes from empty to non-empty (so a
    consumer that drains with :meth:`pop_all` after every wake-up misses
    nothing, and a burst costs one call, not one per event) and once
    when the subscription closes.  It runs on the emitter's thread under
    the fan-out lock, so it must not block; whatever it raises is
    swallowed — a consumer that has gone away (a closed event loop at
    shutdown) must not fail the emitter.
    """

    def __init__(self, parent: "BroadcastSink", maxlen: int,
                 wake: Callable[[], None] | None = None) -> None:
        self._parent = parent
        self._lock = parent._lock            # shared: one fan-out order
        self.maxlen = maxlen
        self._wake = wake
        self._queue: deque[Any] = deque()
        self.closed = False
        #: Itemized losses: ``overflow`` (queue full) / ``closed``
        #: (event arrived after :meth:`close`).
        self.dropped_by_cause: dict[str, int] = {}

    @property
    def dropped(self) -> int:
        """Total events this subscriber lost, over all causes."""
        return sum(self.dropped_by_cause.values())

    def _offer(self, item: Any) -> None:
        """Enqueue under the parent's lock, or account for the drop."""
        if self.closed:
            cause = "closed"
        elif len(self._queue) >= self.maxlen:
            cause = "overflow"
        else:
            self._queue.append(item)
            if len(self._queue) == 1:
                self._notify()
            return
        self.dropped_by_cause[cause] = \
            self.dropped_by_cause.get(cause, 0) + 1

    def _notify(self) -> None:
        if self._wake is None:
            return
        try:
            self._wake()
        except Exception:  # noqa: BLE001 - the consumer's failure, not ours
            pass

    def _close(self) -> None:
        """Mark closed under the parent's lock; wake the consumer once."""
        if not self.closed:
            self.closed = True
            self._notify()

    def pop_all(self) -> list[Any]:
        """Drain every waiting event, oldest first (non-blocking)."""
        with self._lock:
            items = list(self._queue)
            self._queue.clear()
        return items

    def close(self) -> None:
        """Detach from the parent sink; later events count as ``closed``."""
        self._parent.unsubscribe(self)


class BroadcastSink:
    """Thread-safe fan-out sink: one event stream, many subscribers.

    Two subscriber shapes, attachable and detachable *mid-run*:

    * **push** — any sink object (:class:`JsonlSink`,
      :class:`DashboardSink`, :class:`MemorySink`): its ``write(event)``
      runs inline under the fan-out lock, so push subscribers see every
      event in emission order;
    * **pull** — a bounded :class:`Subscription` queue that its consumer
      drains when the subscription's ``wake`` callable tells it to (the
      serve WebSocket streamer parks on exactly that).  A slow
      subscriber overflows its own queue and only *its* events drop,
      itemized per cause — the emitter never blocks and the other
      subscribers never stall.

    :meth:`publish` additionally fans out *non-schema* payloads (e.g.
    ``repro.serve/1`` job-lifecycle objects) to the pull queues only;
    push sinks speak :class:`TraceEvent` and never see them.
    """

    #: Default bound on one subscriber's unconsumed-event queue.
    DEFAULT_MAXLEN = 4096

    def __init__(self, *, maxlen: int = DEFAULT_MAXLEN) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._lock = threading.Lock()
        self.maxlen = maxlen
        self._sinks: list[Any] = []
        self._subs: list[Subscription] = []
        self.events_seen = 0

    # -- subscriber management (any thread, any time) -------------------

    def add_sink(self, sink: Any) -> Any:
        """Attach a push subscriber; returns it for chaining."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach a push subscriber (missing sinks are ignored)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def subscribe(self, *, maxlen: int | None = None,
                  wake: Callable[[], None] | None = None) -> Subscription:
        """Attach a bounded pull queue and return its subscription.

        ``wake`` is called on every empty → non-empty transition of the
        queue and once on close (see :class:`Subscription`).
        """
        sub = Subscription(self, maxlen if maxlen is not None
                           else self.maxlen, wake)
        with self._lock:
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a pull subscriber; its queue keeps what it already has.

        The subscription stays registered (its queue is frozen, so it
        costs nothing) and later events are *counted* against it under
        the ``closed`` cause — so a consumer that detached early can
        still report exactly how much of the stream it missed.  The
        registration is released when the sink itself closes.
        """
        with self._lock:
            sub._close()

    # -- the sink surface ----------------------------------------------

    def write(self, event: TraceEvent) -> None:
        """Fan one schema event out to every subscriber, in order."""
        with self._lock:
            self.events_seen += 1
            for sink in self._sinks:
                sink.write(event)
            for sub in self._subs:
                sub._offer(event)

    def publish(self, payload: Any) -> None:
        """Fan a non-schema payload out to the pull queues only."""
        with self._lock:
            for sub in self._subs:
                sub._offer(payload)

    def close(self) -> None:
        """Close every push sink that can close; detach all pull queues."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
            subs, self._subs = self._subs, []
            for sub in subs:
                sub._close()
        for sink in sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
