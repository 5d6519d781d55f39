"""Application behaviours.

The checkpointing protocols are application-agnostic: what matters is the
*message pattern*.  An :class:`AppBehavior` drives a protocol host through
its narrow application-facing surface:

* ``host.app_send(dst, payload, size=...)`` — send an application message
  (the protocol piggybacks whatever it needs);
* ``host.set_timeout(delay, fn)`` / ``host.now`` / ``host.pid`` — timing;
* incoming messages arrive via ``on_message(host, msg)``.

Every protocol host in this library (the optimistic one and all baselines)
exposes that same surface, so one behaviour runs unchanged under every
protocol — the comparison experiments depend on exactly this property.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any

from ..des.events import EventPriority
from ..net.message import Message

#: Plain int of the timer band — what ``host.set_timeout`` uses; the hot
#: closure workloads schedule with it directly.
_TIMER = int(EventPriority.TIMER)


class AppBehavior:
    """Base class: a process's application logic."""

    def on_start(self, host: Any) -> None:
        """Called when the process starts; arm timers / send first messages."""

    def on_message(self, host: Any, msg: Message) -> None:
        """Called for every delivered application message (payload intact)."""


# Marker hosts use to skip dispatching the inherited no-op handler on the
# per-delivery hot path (send-only behaviours like RingApp inherit it).
AppBehavior.on_message.app_noop = True  # type: ignore[attr-defined]


class SilentApp(AppBehavior):
    """Sends nothing; never replies.

    The adversarial case for the basic algorithm: a silent process starves
    everyone of piggybacked status and the round cannot converge without
    control messages (the paper's Figure 5 motivation).
    """


class UniformRandomApp(AppBehavior):
    """Poisson sends to uniformly random peers.

    The workhorse workload: per-process exponential inter-send times with
    rate ``rate`` (messages per simulated second), destinations uniform
    over the other processes, until ``horizon``.

    Parameters
    ----------
    rate:
        Mean messages/second this process sends.
    horizon:
        No sends are scheduled at or beyond this time.
    msg_size:
        Payload bytes per message (int) — kept constant so byte metrics
        decompose cleanly into protocol vs application bytes.
    reply_prob:
        Probability of replying to a received message (adds request/response
        correlation without changing the long-run rate much).
    """

    def __init__(self, rate: float, horizon: float, msg_size: int = 1024,
                 reply_prob: float = 0.0) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if not (0.0 <= reply_prob <= 1.0):
            raise ValueError(f"reply_prob must be in [0,1], got {reply_prob}")
        self.rate = rate
        self.horizon = horizon
        self.msg_size = msg_size
        self.reply_prob = reply_prob

    def on_start(self, host: Any) -> None:
        # One send/reschedule closure per host, with the RNG stream handle,
        # mean gap and payload hoisted: sends are this workload's hot path
        # and per-fire stream lookups / tuple builds add up.  Draw order is
        # identical to the naive version (gap, then destination per fire).
        if self.rate <= 0:
            return
        sim = host.sim
        rng = sim.rng.stream(f"app.{host.pid}")
        exponential = rng.exponential
        integers = rng.integers
        mean_gap = 1.0 / self.rate
        horizon = self.horizon
        size = self.msg_size
        pid = host.pid
        n = host.network.n
        payload = ("data", pid)
        app_send = host.app_send
        inc = host.incarnation
        # Heap alias for the inlined re-arm below: drain_cancelled compacts
        # the heap *in place*, so the alias stays valid for the whole run.
        heap = sim._heap

        # ``fire`` and ``schedule_next`` reach each other through their
        # closure cells, a reference cycle; whichever ends the chain
        # empties ``fire``'s cell so that reference counting frees both
        # (the run pauses the cyclic collector: DESIGN.md "Who owns whom").
        def schedule_next() -> None:
            nonlocal fire
            gap = float(exponential(mean_gap))
            t = sim.now + gap
            if t >= horizon:
                del fire
                return
            # sim.schedule_fast inlined (gap >= 0 by construction): one
            # heap tuple per re-arm, no Event, no call frame.  Keep in
            # sync with Simulator.schedule_fast.
            sim._seq = seq = sim._seq + 1
            heappush(heap, (t, _TIMER, seq, fire))
            if len(heap) > sim.peak_pending:
                sim.peak_pending = len(heap)

        def fire() -> None:
            nonlocal fire
            # Inline staleness guard (what set_timeout's wrapper checks):
            # a crashed or rolled-back process drops the old send chain.
            if host.halted or host.incarnation != inc:
                del fire
                return
            if n > 1:
                dst = int(integers(0, n - 1))
                if dst >= pid:
                    dst += 1
                app_send(dst, payload, size)
            schedule_next()

        schedule_next()

    def on_message(self, host: Any, msg: Message) -> None:
        if self.reply_prob <= 0.0 or host.now >= self.horizon:
            return
        payload = msg.payload
        if isinstance(payload, tuple) and payload and payload[0] == "reply":
            return  # do not reply to replies (no ping-pong storms)
        rng = host.sim.rng.stream(f"app.{host.pid}")
        if float(rng.random()) < self.reply_prob:
            host.app_send(msg.src, ("reply", host.pid), size=self.msg_size)


class RingApp(AppBehavior):
    """Token-style traffic: each process periodically messages its successor.

    Deterministic pattern with strong pairwise locality — knowledge of
    tentative checkpoints spreads slowly (one hop per message), stressing
    convergence.
    """

    def __init__(self, period: float, horizon: float,
                 msg_size: int = 1024) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.horizon = horizon
        self.msg_size = msg_size

    def on_start(self, host: Any) -> None:
        # Everything about a ring sender is constant (successor, payload,
        # period), so one self-rescheduling closure replaces the
        # per-fire method dispatch + tuple/lambda builds of the naive
        # version.  Guard conditions and event order are unchanged.
        period = self.period
        horizon = self.horizon
        sim = host.sim
        if sim.now + period >= horizon:
            return
        n = host.network.n
        dst = (host.pid + 1) % n
        payload = ("ring", host.pid)
        size = self.msg_size
        has_peer = n > 1
        app_send = host.app_send
        inc = host.incarnation
        # Heap alias for the inlined re-arm below: drain_cancelled compacts
        # the heap *in place*, so the alias stays valid for the whole run.
        heap = sim._heap

        # ``fire`` holds itself through its closure cell; the fire that
        # ends the chain empties the cell, so reference counting frees it.
        def fire() -> None:
            nonlocal fire
            # Inline staleness guard (what set_timeout's wrapper checks).
            if host.halted or host.incarnation != inc:
                del fire
                return
            if has_peer:
                app_send(dst, payload, size)
            t = sim.now + period
            if t < horizon:
                # sim.schedule_fast inlined (period > 0 by validation);
                # keep in sync with Simulator.schedule_fast.
                sim._seq = seq = sim._seq + 1
                heappush(heap, (t, _TIMER, seq, fire))
                if len(heap) > sim.peak_pending:
                    sim.peak_pending = len(heap)
            else:
                del fire

        sim.schedule_fast(period, fire, _TIMER)


class ClientServerApp(AppBehavior):
    """Clients fire requests at a server; the server answers every request.

    The paper's response-time argument is sharpest here: under CIC a server
    may be forced to checkpoint *before* processing a request, inflating
    its reply latency; the optimistic protocol never does.
    """

    def __init__(self, server: int, rate: float, horizon: float,
                 request_size: int = 256, reply_size: int = 1024) -> None:
        self.server = server
        self.rate = rate
        self.horizon = horizon
        self.request_size = request_size
        self.reply_size = reply_size

    def on_start(self, host: Any) -> None:
        if host.pid != self.server and self.rate > 0:
            self._schedule_next(host)

    def _schedule_next(self, host: Any) -> None:
        rng = host.sim.rng.stream(f"app.{host.pid}")
        gap = float(rng.exponential(1.0 / self.rate))
        if host.now + gap >= self.horizon:
            return
        host.set_timeout(gap, lambda: self._fire(host))

    def _fire(self, host: Any) -> None:
        host.app_send(self.server, ("request", host.pid),
                      size=self.request_size)
        self._schedule_next(host)

    def on_message(self, host: Any, msg: Message) -> None:
        if host.pid == self.server:
            payload = msg.payload
            if isinstance(payload, tuple) and payload[0] == "request":
                host.app_send(msg.src, ("response", host.pid),
                              size=self.reply_size)


class BurstyApp(AppBehavior):
    """On/off traffic: Poisson bursts separated by silence.

    Long off-periods are where the basic algorithm stalls (no piggyback
    traffic ⇒ no convergence) — the regime where control messages earn
    their keep (experiment E5/E9).
    """

    def __init__(self, rate: float, on_time: float, off_time: float,
                 horizon: float, msg_size: int = 1024) -> None:
        if on_time <= 0 or off_time < 0:
            raise ValueError("on_time must be > 0 and off_time >= 0")
        self.rate = rate
        self.on_time = on_time
        self.off_time = off_time
        self.horizon = horizon
        self.msg_size = msg_size

    def on_start(self, host: Any) -> None:
        # De-phase bursts per process.
        rng = host.sim.rng.stream(f"app.{host.pid}")
        start = float(rng.uniform(0.0, self.on_time + self.off_time))
        if start < self.horizon:
            host.set_timeout(start, lambda: self._burst(host))

    def _burst(self, host: Any) -> None:
        end = min(host.now + self.on_time, self.horizon)
        self._send_loop(host, end)
        nxt = self.on_time + self.off_time
        if host.now + nxt < self.horizon:
            host.set_timeout(nxt, lambda: self._burst(host))

    def _send_loop(self, host: Any, burst_end: float) -> None:
        rng = host.sim.rng.stream(f"app.{host.pid}")
        gap = float(rng.exponential(1.0 / self.rate)) if self.rate > 0 else float("inf")
        if host.now + gap >= burst_end:
            return
        def fire() -> None:
            n = host.network.n
            if n > 1:
                dst = int(rng.integers(0, n - 1))
                if dst >= host.pid:
                    dst += 1
                host.app_send(dst, ("burst", host.pid), size=self.msg_size)
            self._send_loop(host, burst_end)
        host.set_timeout(gap, fire)


class PipelineApp(AppBehavior):
    """A processing pipeline: stage i forwards to stage i+1.

    Stage 0 sources items periodically; each stage forwards after a fixed
    per-item service delay.  Models the paper's intro workload class
    (long-running staged computations on clusters).
    """

    def __init__(self, source_period: float, service_time: float,
                 horizon: float, msg_size: int = 4096) -> None:
        self.source_period = source_period
        self.service_time = service_time
        self.horizon = horizon
        self.msg_size = msg_size

    def on_start(self, host: Any) -> None:
        if host.pid == 0:
            self._arm_source(host)

    def _arm_source(self, host: Any) -> None:
        if host.now + self.source_period >= self.horizon:
            return
        host.set_timeout(self.source_period, lambda: self._source(host))

    def _source(self, host: Any) -> None:
        if host.network.n > 1:
            host.app_send(1, ("item", 0), size=self.msg_size)
        self._arm_source(host)

    def on_message(self, host: Any, msg: Message) -> None:
        nxt = host.pid + 1
        if nxt < host.network.n and host.now + self.service_time < self.horizon:
            host.set_timeout(
                self.service_time,
                lambda: host.app_send(nxt, ("item", host.pid),
                                      size=self.msg_size))
