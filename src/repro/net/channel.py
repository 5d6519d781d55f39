"""Directed point-to-point channels.

A :class:`Channel` models one directed pair ``(src, dst)``.  It owns:

* its RNG stream (named ``"net.<src>-><dst>"``) so latency draws are
  independent per channel and reproducible;
* the FIFO/non-FIFO discipline.  The paper's system model says channels
  *need not* be FIFO, and the default here is non-FIFO: each message's
  arrival time is ``now + latency`` independently, so a later send can
  overtake an earlier one.  Chandy-Lamport, however, *requires* FIFO
  channels; with ``fifo=True`` arrivals are clamped to be non-decreasing
  (``max(now + latency, last_arrival + epsilon)``);
* per-channel statistics (message and byte counts, in-flight count), which
  the Chandy-Lamport channel-state recording and the metrics layer read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .message import Message

#: Minimal separation between consecutive FIFO arrivals — keeps the order
#: strict even when two latency draws would collide.
FIFO_EPSILON = 1e-9


@dataclass
class ChannelStats:
    """Counters a channel maintains; read by metrics and tests."""

    messages: int = 0
    bytes: int = 0
    in_flight: int = 0
    delivered: int = 0
    dropped: int = 0
    max_in_flight: int = 0
    #: ``dropped`` split by cause ("gate", "crashed", "rollback",
    #: "chaos.drop", ...) — protocol-intended drops stay distinguishable
    #: from injected ones.  A held message is in flight, not dropped.
    dropped_by_cause: dict[str, int] = field(default_factory=dict)

    def on_send(self, msg: Message) -> None:
        """Account one departure (message + bytes + in-flight)."""
        self.messages += 1
        self.bytes += msg.total_bytes
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def on_deliver(self, msg: Message) -> None:
        """Account one delivery (in-flight down, delivered up)."""
        self.in_flight -= 1
        self.delivered += 1

    def on_drop(self, msg: Message, cause: str = "gate") -> None:
        """Account one dropped message, attributed to ``cause``."""
        self.in_flight -= 1
        self.dropped += 1
        self.dropped_by_cause[cause] = self.dropped_by_cause.get(cause, 0) + 1


class Channel:
    """One directed channel with a latency model and delivery discipline."""

    def __init__(self, src: int, dst: int, rng: np.random.Generator,
                 fifo: bool = False, direct: bool = True) -> None:
        self.src = src
        self.dst = dst
        self.rng = rng
        self.fifo = fifo
        #: Whether the endpoints are topology-adjacent (computed once at
        #: channel creation; non-adjacent pairs route per-hop latency).
        self.direct = direct
        self.stats = ChannelStats()
        self._last_arrival = 0.0

    def arrival_time(self, now: float, latency: float) -> float:
        """Compute the delivery timestamp for a message sent at ``now``.

        Non-FIFO: simply ``now + latency``.  FIFO: additionally clamped to
        strictly after the previous arrival on this channel.
        """
        t = now + latency
        if self.fifo:
            t = max(t, self._last_arrival + FIFO_EPSILON)
            self._last_arrival = t
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        discipline = "fifo" if self.fifo else "non-fifo"
        return f"Channel(P{self.src}->P{self.dst}, {discipline}, sent={self.stats.messages})"
