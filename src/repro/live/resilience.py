"""Resilient transport layer: retries, acks, dedup — at-most-once receive.

:class:`ResilientEndpoint` wraps any :class:`~repro.live.transport.Endpoint`
and upgrades the live wire from fire-and-forget to *bounded-retry with
idempotent receive*:

* **send** — every ``app``/``ctl`` frame is stamped with a retransmission
  sequence number ``rs`` (minted from the :func:`~repro.live.wire.make_uid`
  ``(pid, incarnation, counter)`` namespace, so values never collide across
  crashes/restarts) and retransmitted with exponential backoff + jitter
  until acked or ``max_retries`` is exhausted;
* **receive** — inbound ``ack`` frames settle pending retransmissions and
  are consumed here (the host never sees them); every inbound frame
  carrying an ``rs`` is acked back to its sender *before* the duplicate
  check, so even frames the host will discard (stale epoch, duplicate)
  stop their sender's retransmission loop;
* **dedup** — a seen-``rs`` set drops retransmitted frames already
  delivered once, making the layer's delivery at-most-once.  (The host
  additionally dedups app uids — defense in depth.)

Frames without a natural sender pid (supervisor ``recover``/``stop``) and
``ack`` frames themselves pass through untouched.

The layer is what lets injected wire faults (:mod:`repro.chaos.live`)
heal: a dropped frame is retransmitted, a duplicated one deduped, and the
conformance replay still proves Theorem 2.  Disabling it
(``LiveRunConfig.resilience = False``) makes the same fault plans lose
messages for good — the chaos matrix's discrimination check.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable

from ..obs import NULL_TRACER, Tracer
from .transport import Endpoint
from .wire import SUPERVISOR, ack_frame, make_uid

#: Frame kinds covered by retry/ack/dedup.
_RELIABLE_KINDS = ("app", "ctl")


@dataclass
class ResilienceConfig:
    """Retry/backoff knobs (documented defaults in docs/ROBUSTNESS.md)."""

    enabled: bool = True
    #: Retransmissions per frame after the initial send.
    max_retries: int = 6
    #: First backoff delay (seconds); doubles per attempt.
    base_delay: float = 0.05
    #: Backoff ceiling (seconds).
    max_delay: float = 1.0
    #: Uniform jitter fraction added to each delay (0.25 = up to +25%).
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff for the ``attempt``-th retransmission (0-based)."""
        base = min(self.max_delay, self.base_delay * (2 ** attempt))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class ResilienceStats:
    """Counters the supervisor/worker fold into reports."""

    sent: int = 0
    retries: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    dup_dropped: int = 0
    give_ups: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (journaled as run-end evidence)."""
        return {"sent": self.sent, "retries": self.retries,
                "acks_sent": self.acks_sent,
                "acks_received": self.acks_received,
                "dup_dropped": self.dup_dropped,
                "give_ups": self.give_ups}


class ResilientEndpoint(Endpoint):
    """Bounded-retry + ack/dedup wrapper around a transport endpoint."""

    def __init__(self, inner: Endpoint, config: ResilienceConfig | None = None,
                 *, incarnation: int = 0, seed: int = 0,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.pid = inner.pid
        self.epoch = inner.epoch
        self.config = config if config is not None else ResilienceConfig()
        self.incarnation = incarnation
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ResilienceStats()
        # Live code runs on wall-clock jitter by design (REP002-exempt
        # package); still seeded per worker for reproducible-ish backoff.
        self._rng = random.Random((seed << 20) ^ (self.pid << 10)
                                  ^ incarnation)
        self._rs_counter = 0
        #: rs -> [frame, attempt, timer handle] awaiting ack.
        self._pending: dict[int, list[Any]] = {}
        #: rs values already delivered to the host (at-most-once receive).
        self._seen_rs: set[int] = set()
        self._closed = False

    # -- send side ---------------------------------------------------------

    def send(self, frame: dict[str, Any]) -> None:
        if (not self.config.enabled or self._closed
                or frame.get("t") not in _RELIABLE_KINDS
                or frame.get("dst", SUPERVISOR) == SUPERVISOR):
            self.inner.send(frame)
            return
        self._rs_counter += 1
        rs = make_uid(self.pid, self.incarnation, self._rs_counter)
        frame = dict(frame)
        frame["rs"] = rs
        self.stats.sent += 1
        entry = [frame, 0, None]
        self._pending[rs] = entry
        self.inner.send(frame)
        self._arm(rs, entry)

    def _arm(self, rs: int, entry: list[Any]) -> None:
        loop = asyncio.get_event_loop()
        delay = self.config.delay(entry[1], self._rng)
        entry[2] = loop.call_later(delay, self._retransmit, rs)

    def _retransmit(self, rs: int) -> None:
        entry = self._pending.get(rs)
        if entry is None or self._closed:
            return
        entry[1] += 1
        if entry[1] > self.config.max_retries:
            # Bounded: give the frame up for lost.  The protocol above
            # tolerates loss (piggyback gossip / CK_REQ catch-up); the
            # bound keeps a dead peer from accumulating timers forever.
            del self._pending[rs]
            self.stats.give_ups += 1
            if self.tracer.enabled:
                self.tracer.point("net.give_up",
                                  asyncio.get_event_loop().time(),
                                  pid=self.pid, frame=entry[0]["t"])
            return
        self.stats.retries += 1
        if self.tracer.enabled:
            self.tracer.point("net.retry", asyncio.get_event_loop().time(),
                              pid=self.pid, frame=entry[0]["t"],
                              attempt=entry[1])
        self.inner.send(entry[0])
        self._arm(rs, entry)

    # -- receive side ------------------------------------------------------

    async def recv(self) -> dict[str, Any] | None:
        while True:
            frame = await self.inner.recv()
            if frame is None:
                return None
            if frame.get("t") == "ack":
                self._settle(frame["rs"])
                continue
            rs = frame.get("rs")
            if rs is not None:
                # Ack before the dedup check: duplicates and stale-epoch
                # frames must still stop the sender's retransmissions.
                self.inner.send(ack_frame(self.pid, frame["src"], rs))
                self.stats.acks_sent += 1
                if rs in self._seen_rs:
                    self.stats.dup_dropped += 1
                    continue
                self._seen_rs.add(rs)
            return frame

    def _settle(self, rs: int) -> None:
        entry = self._pending.pop(rs, None)
        if entry is not None:
            self.stats.acks_received += 1
            if entry[2] is not None:
                entry[2].cancel()

    # -- passthrough -------------------------------------------------------

    async def drain(self) -> None:
        """Forward drain to the wrapped transport.

        This is the backpressure path: the TCP endpoint's batcher drain
        awaits ``writer.drain()``, so an uncapped workload awaiting this
        method stalls when the peer's TCP window is full instead of
        growing the write buffer without bound.
        """
        await self.inner.drain()

    def set_pre_flush(self, hook: Callable[[], None]) -> None:
        """Forward the journal-flush hook down to the wire batcher."""
        self.inner.set_pre_flush(hook)

    def close(self) -> None:
        self._closed = True
        for entry in self._pending.values():
            if entry[2] is not None:
                entry[2].cancel()
        self._pending.clear()
        self.inner.close()
