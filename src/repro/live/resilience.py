"""Resilient transport layer: retries, acks, dedup — at-most-once receive.

:class:`ResilientEndpoint` wraps any :class:`~repro.live.transport.Endpoint`
and upgrades the live wire from fire-and-forget to *bounded-retry with
idempotent receive*:

* **send** — every ``app``/``ctl`` frame is stamped with a retransmission
  sequence number ``rs`` (minted from the :func:`~repro.live.wire.make_uid`
  ``(pid, incarnation, counter)`` namespace, so values never collide across
  crashes/restarts) and retransmitted until acked or ``max_retries`` is
  exhausted.  One timer per destination watches every unacked frame to
  it; a frame is due one retransmission timeout (:func:`rto`) after it
  was last sent;
* **timeout** — the RFC 6298 estimator, per destination: SRTT and RTTVAR
  follow the round trips of acked frames (:func:`rtt_sample`), and the
  timeout is SRTT + 4·RTTVAR clamped to ``[base_delay, max_delay]`` and
  doubled per retransmission of the frame.  Before the first sample it is
  ``base_delay``, which is therefore both the first timeout and the floor.
  Each ack frame gives one sample, the round trip of its oldest frame
  that was never retransmitted (Karn's rule): the hundreds of frames one
  ack can cover left in one flight, so their round trips are one
  measurement, and feeding each to the estimator would shrink RTTVAR to
  nothing (RFC 7323, appendix G);
* **receive** — inbound ``ack`` frames settle pending retransmissions and
  are consumed here (the host never sees them); every inbound frame
  carrying an ``rs`` is queued for acknowledgement *before* the duplicate
  check, so even frames the host will discard (stale epoch, duplicate)
  stop their sender's retransmissions.  The ``rs`` queued in one
  event-loop pass go back to each sender in one coalesced ``ack`` frame,
  flushed at the end of the pass, by :meth:`~ResilientEndpoint.drain` and
  by :meth:`~ResilientEndpoint.close`;
* **window** — :meth:`~ResilientEndpoint.drain`, the back-pressure point
  of a closed-loop sender, also waits (for at most one timeout) for an
  ack while :data:`SEND_WINDOW` frames to one destination are unacked
  and a receive is in progress to take that ack in.  That bounds the
  frames held for retransmission, and the queue a fast sender builds in
  the socket buffers ahead of a slower receiver;
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
import math
from dataclasses import dataclass, fields
from typing import Any, Callable

from ..obs import NULL_TRACER, Tracer
from .transport import Endpoint
from .wire import SUPERVISOR, ack_frames, make_uid

#: Frame kinds covered by retry/ack/dedup.
_RELIABLE_KINDS = ("app", "ctl")

#: Unacked frames to one destination at which :meth:`ResilientEndpoint.drain`
#: waits for an ack: about 200 KB on the wire and 2 MB held for
#: retransmission, many times what one event-loop pass of a loopback
#: receiver takes in.
SEND_WINDOW = 2048

#: Smoothed round-trip time and its mean deviation, seconds; ``None``
#: before the first sample.
RttState = tuple[float, float] | None


def rtt_sample(state: RttState, rtt: float) -> tuple[float, float]:
    """``(SRTT, RTTVAR)`` after one round-trip measurement (RFC 6298 §2).

    The first sample sets SRTT to it and RTTVAR to half of it; each later
    one moves RTTVAR a quarter of the way to ``|SRTT - rtt|`` and then
    SRTT an eighth of the way to ``rtt``.
    """
    if state is None:
        return rtt, rtt / 2
    srtt, rttvar = state
    return srtt + (rtt - srtt) / 8, rttvar + (abs(srtt - rtt) - rttvar) / 4


def rto(state: RttState, floor: float, ceiling: float,
        attempt: int = 0) -> float:
    """Retransmission timeout of a frame already retransmitted
    ``attempt`` times: SRTT + 4·RTTVAR (``floor`` before any sample),
    clamped to ``[floor, ceiling]``, then doubled per attempt up to
    ``ceiling``."""
    base = floor if state is None else max(floor, state[0] + 4 * state[1])
    return min(ceiling, base * (1 << attempt))


@dataclass
class ResilienceConfig:
    """Retry/timeout knobs (documented defaults in docs/ROBUSTNESS.md)."""

    enabled: bool = True
    #: Retransmissions per frame after the initial send.
    max_retries: int = 6
    #: First retransmission timeout and its floor (seconds).
    base_delay: float = 0.05
    #: Retransmission timeout ceiling (seconds).
    max_delay: float = 1.0


@dataclass
class ResilienceStats:
    """Counters the supervisor/worker fold into reports."""

    sent: int = 0
    retries: int = 0
    #: ``rs`` acknowledged, and the ``ack`` frames that carried them.
    acks_sent: int = 0
    ack_frames: int = 0
    acks_received: int = 0
    dup_dropped: int = 0
    give_ups: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (journaled as run-end evidence)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def retransmits_per_frame(self) -> float:
        """Retransmissions per reliable frame sent (0 when none was)."""
        return self.retries / self.sent if self.sent else 0.0


class _Peer:
    """Send-side state for one destination."""

    __slots__ = ("pending", "timer", "rtt")

    def __init__(self) -> None:
        #: rs -> [frame, retransmissions so far, loop time of last send].
        self.pending: dict[int, list[Any]] = {}
        self.timer: asyncio.TimerHandle | None = None
        self.rtt: RttState = None


class ResilientEndpoint(Endpoint):
    """Bounded-retry + ack/dedup wrapper around a transport endpoint."""

    def __init__(self, inner: Endpoint, config: ResilienceConfig | None = None,
                 *, incarnation: int = 0,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.pid = inner.pid
        self.epoch = inner.epoch
        self.config = config if config is not None else ResilienceConfig()
        self.incarnation = incarnation
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ResilienceStats()
        self._loop = asyncio.get_event_loop()
        self._rs_counter = 0
        self._peers: dict[int, _Peer] = {}
        #: sender pid -> rs received this pass, awaiting one ack frame.
        self._acks: dict[int, list[int]] = {}
        self._ack_flush: asyncio.Handle | None = None
        #: rs values already delivered to the host (at-most-once receive).
        self._seen_rs: set[int] = set()
        #: Set by every ack taken in; what a :meth:`drain` at the window
        #: waits for.
        self._acked = asyncio.Event()
        #: A :meth:`recv` is waiting on the wire: an ack can come in.
        self._receiving = False
        self._closed = False

    # -- send side ---------------------------------------------------------

    def send(self, frame: dict[str, Any]) -> None:
        dst = frame.get("dst", SUPERVISOR)
        if (not self.config.enabled or self._closed
                or frame.get("t") not in _RELIABLE_KINDS
                or dst == SUPERVISOR):
            self.inner.send(frame)
            return
        self._rs_counter += 1
        rs = make_uid(self.pid, self.incarnation, self._rs_counter)
        frame = dict(frame)
        frame["rs"] = rs
        self.stats.sent += 1
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peers[dst] = _Peer()
        now = self._loop.time()
        peer.pending[rs] = [frame, 0, now]
        self.inner.send(frame)
        if peer.timer is None:
            peer.timer = self._loop.call_at(
                now + rto(peer.rtt, self.config.base_delay,
                          self.config.max_delay),
                self._expire, dst)

    def _expire(self, dst: int) -> None:
        """``dst``'s timer: retransmit every frame whose timeout passed,
        give up on those out of retries, re-arm for the next one due."""
        peer = self._peers[dst]
        peer.timer = None
        if self._closed or not peer.pending:
            return
        cfg = self.config
        now = self._loop.time()
        next_due = math.inf
        for rs, entry in list(peer.pending.items()):
            due = entry[2] + rto(peer.rtt, cfg.base_delay, cfg.max_delay,
                                 entry[1])
            if due > now:
                next_due = min(next_due, due)
                continue
            entry[1] += 1
            if entry[1] > cfg.max_retries:
                # Bounded: give the frame up for lost.  The protocol above
                # tolerates loss (piggyback gossip / CK_REQ catch-up); the
                # bound keeps a dead peer from accumulating frames forever.
                del peer.pending[rs]
                self.stats.give_ups += 1
                if self.tracer.enabled:
                    self.tracer.point("net.give_up", now, pid=self.pid,
                                      frame=entry[0]["t"])
                continue
            self.stats.retries += 1
            if self.tracer.enabled:
                self.tracer.point("net.retry", now, pid=self.pid,
                                  frame=entry[0]["t"], attempt=entry[1])
            self.inner.send(entry[0])
            entry[2] = now
            next_due = min(next_due, now + rto(
                peer.rtt, cfg.base_delay, cfg.max_delay, entry[1]))
        if peer.pending:
            peer.timer = self._loop.call_at(next_due, self._expire, dst)

    def _settle(self, src: int, acked: list[int]) -> None:
        """An ack from ``src``: drop its frames from the pending set and
        take one round-trip sample, from the oldest acked frame that was
        sent only once (Karn's rule)."""
        peer = self._peers.get(src)
        if peer is None:
            return
        pending = peer.pending
        first_sent = math.inf
        for rs in acked:
            entry = pending.pop(rs, None)
            if entry is not None:
                self.stats.acks_received += 1
                if entry[1] == 0:
                    first_sent = min(first_sent, entry[2])
        if first_sent < math.inf:
            peer.rtt = rtt_sample(peer.rtt, self._loop.time() - first_sent)
        self._acked.set()
        if not pending and peer.timer is not None:
            peer.timer.cancel()
            peer.timer = None

    # -- receive side ------------------------------------------------------

    async def recv(self) -> dict[str, Any] | None:
        while True:
            self._receiving = True
            try:
                frame = await self.inner.recv()
            finally:
                self._receiving = False
            if frame is None:
                return None
            if frame.get("t") == "ack":
                self._settle(frame["src"], frame["rs"])
                continue
            rs = frame.get("rs")
            if rs is not None:
                # Ack before the dedup check: duplicates and stale-epoch
                # frames must still stop the sender's retransmissions.
                self._queue_ack(frame["src"], rs)
                if rs in self._seen_rs:
                    self.stats.dup_dropped += 1
                    continue
                self._seen_rs.add(rs)
            return frame

    def _queue_ack(self, src: int, rs: int) -> None:
        """Add ``rs`` to ``src``'s ack of this event-loop pass."""
        self.stats.acks_sent += 1
        acks = self._acks.get(src)
        if acks is None:
            self._acks[src] = [rs]
            if self._ack_flush is None:
                self._ack_flush = self._loop.call_soon(self._flush_acks)
        else:
            acks.append(rs)

    def _flush_acks(self) -> None:
        """Send every queued ``rs``, one ack frame per sender."""
        if self._ack_flush is not None:
            self._ack_flush.cancel()
            self._ack_flush = None
        acks, self._acks = self._acks, {}
        for src, rs in acks.items():
            for frame in ack_frames(self.pid, src, rs):
                self.inner.send(frame)
                self.stats.ack_frames += 1

    # -- passthrough -------------------------------------------------------

    async def drain(self) -> None:
        """Flush the queued acks, drain the wrapped transport, then wait
        at the send window.

        This is the backpressure path: the TCP endpoint's batcher drain
        awaits ``writer.drain()``, so an uncapped workload awaiting this
        method stalls when the peer's TCP window is full instead of
        growing the write buffer without bound.  Past that, while
        :data:`SEND_WINDOW` frames to one destination are unacked, it
        waits for the next ack, or one timeout at most; it never waits
        when no receive is in progress (a stopped host reads no acks).
        """
        self._flush_acks()
        await self.inner.drain()
        if not self._receiving:
            return
        cfg = self.config
        for peer in self._peers.values():
            if len(peer.pending) >= SEND_WINDOW:
                self._acked.clear()
                try:
                    await asyncio.wait_for(
                        self._acked.wait(),
                        rto(peer.rtt, cfg.base_delay, cfg.max_delay))
                except asyncio.TimeoutError:
                    pass
                return

    def set_pre_flush(self, hook: Callable[[], None]) -> None:
        """Forward the journal-flush hook down to the wire batcher."""
        self.inner.set_pre_flush(hook)

    def close(self) -> None:
        self._flush_acks()
        self._closed = True
        for peer in self._peers.values():
            if peer.timer is not None:
                peer.timer.cancel()
                peer.timer = None
            peer.pending.clear()
        self.inner.close()
