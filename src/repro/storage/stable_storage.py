"""The shared stable-storage (network file server) model.

This is where the paper's central performance claim lives.  Synchronous
checkpointing makes all N processes flush state at (nearly) the same instant;
the file server serializes those writes, so each client waits behind the
others — *contention*.  The optimistic protocol spreads flushes out in time,
so the queue stays short.

:class:`StableStorage` is a single FIFO queue in front of ``servers``
identical disks (default 1, the paper's single file server).  Every write is
fully instrumented:

* per-request arrival / start / finish timestamps (⇒ waiting time);
* a queue-length step series over time;
* "pending" (arrived but unfinished) step series, whose maximum is the
  *peak concurrent writers* statistic the contention experiments report;
* busy time per server (⇒ utilization).

Writes complete asynchronously: callers get a :class:`WriteRequest` and may
pass a completion callback — the protocol layer uses this to model processes
that block on the flush (Koo-Toueg) versus those that fire-and-forget (the
optimistic protocol's convenient-time flush).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..des.engine import Simulator
from ..des.events import EventPriority
from .disk_model import DiskModel
from .space import SpaceTracker


@dataclass
class WriteRequest:
    """One write's lifecycle record."""

    pid: int
    nbytes: int
    label: str
    arrive: float
    start: float | None = None
    finish: float | None = None
    callback: Callable[["WriteRequest"], None] | None = field(
        default=None, repr=False)

    @property
    def wait(self) -> float:
        """Queueing delay (start - arrive); 0.0 while still queued."""
        if self.start is None:
            return 0.0
        return self.start - self.arrive

    @property
    def latency(self) -> float:
        """Total client-visible time (finish - arrive)."""
        if self.finish is None:
            return 0.0
        return self.finish - self.arrive

    @property
    def done(self) -> bool:
        return self.finish is not None


class StableStorage:
    """FIFO stable-storage server with full contention telemetry.

    Parameters
    ----------
    sim:
        Simulator for scheduling completions.
    disk:
        Service-time model.
    servers:
        Number of identical disks serving the queue (paper: 1).
    """

    def __init__(self, sim: Simulator, disk: DiskModel | None = None,
                 servers: int = 1) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.sim = sim
        self.disk = disk if disk is not None else DiskModel()
        self.servers = servers
        #: Logical space ledger; protocol hosts retain/release checkpoint
        #: blobs here so experiments can compare storage footprints (E13).
        self.space = SpaceTracker()
        self.requests: list[WriteRequest] = []
        self._queue: list[WriteRequest] = []
        self._busy = 0
        self._busy_time = 0.0
        #: (time, queue_length) steps — length counts *waiting* requests.
        self.queue_series: list[tuple[float, int]] = [(0.0, 0)]
        #: (time, pending) steps — arrived but unfinished requests.
        self.pending_series: list[tuple[float, int]] = [(0.0, 0)]
        self._pending = 0

    # -- client API ---------------------------------------------------------

    def write(self, pid: int, nbytes: int, label: str = "",
              callback: Callable[[WriteRequest], None] | None = None
              ) -> WriteRequest:
        """Submit a write; returns immediately with the request handle.

        ``callback(req)`` fires at completion time (if given).  The write is
        traced as ``storage.write.arrive`` / ``.start`` / ``.finish`` with
        the submitting ``pid`` so experiments can attribute contention.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        req = WriteRequest(pid=pid, nbytes=nbytes, label=label,
                           arrive=self.sim.now, callback=callback)
        self.requests.append(req)
        self._pending += 1
        self.pending_series.append((self.sim.now, self._pending))
        tr = self.sim.trace
        if tr.enabled:
            tr.record(self.sim.now, "storage.write.arrive", pid,
                      bytes=nbytes, label=label)
        if self._busy < self.servers:
            self._start(req)
        else:
            self._queue.append(req)
            self.queue_series.append((self.sim.now, len(self._queue)))
        return req

    # -- internals ----------------------------------------------------------

    def _start(self, req: WriteRequest) -> None:
        self._busy += 1
        req.start = self.sim.now
        service = self.disk.service_time(req.nbytes)
        tr = self.sim.trace
        if tr.enabled:
            tr.record(self.sim.now, "storage.write.start", req.pid,
                      bytes=req.nbytes, label=req.label, wait=req.wait)
        self.sim.schedule(service, lambda: self._finish(req),
                          priority=EventPriority.MONITOR)

    def _finish(self, req: WriteRequest) -> None:
        req.finish = self.sim.now
        self._busy -= 1
        self._busy_time += req.finish - req.start
        self._pending -= 1
        self.pending_series.append((self.sim.now, self._pending))
        tr = self.sim.trace
        if tr.enabled:
            tr.record(self.sim.now, "storage.write.finish", req.pid,
                      bytes=req.nbytes, label=req.label, latency=req.latency)
        if self._queue:
            nxt = self._queue.pop(0)
            self.queue_series.append((self.sim.now, len(self._queue)))
            self._start(nxt)
        if req.callback is not None:
            req.callback(req)

    # -- telemetry ----------------------------------------------------------

    def peak_pending(self) -> int:
        """Maximum simultaneous outstanding writes — the headline contention
        number ("how many processes wanted the file server at once")."""
        if not self.pending_series:
            return 0
        return max(v for _, v in self.pending_series)

    def peak_queue(self) -> int:
        """Maximum queue length (excludes in-service requests)."""
        if not self.queue_series:
            return 0
        return max(v for _, v in self.queue_series)

    def waits(self) -> np.ndarray:
        """Array of per-request queueing waits (completed requests only)."""
        return np.array([r.wait for r in self.requests if r.done], dtype=float)

    def total_wait(self) -> float:
        """Sum of queueing delays — aggregate contention cost."""
        w = self.waits()
        return float(w.sum()) if w.size else 0.0

    def mean_wait(self) -> float:
        """Mean queueing delay over completed requests (0.0 if none)."""
        w = self.waits()
        return float(w.mean()) if w.size else 0.0

    def max_wait(self) -> float:
        """Worst single queueing delay."""
        w = self.waits()
        return float(w.max()) if w.size else 0.0

    def busy_time(self) -> float:
        """Total server busy time accumulated so far."""
        return self._busy_time

    def utilization(self, makespan: float | None = None) -> float:
        """Busy fraction over ``makespan`` (defaults to sim.now)."""
        horizon = self.sim.now if makespan is None else makespan
        if horizon <= 0:
            return 0.0
        return self._busy_time / (horizon * self.servers)

    def completed(self) -> int:
        """Number of finished writes."""
        return sum(1 for r in self.requests if r.done)

    def outstanding(self) -> int:
        """Arrived but unfinished writes right now."""
        return self._pending

    def bytes_written(self) -> int:
        """Total bytes in completed writes."""
        return sum(r.nbytes for r in self.requests if r.done)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StableStorage(servers={self.servers}, "
                f"completed={self.completed()}, peak={self.peak_pending()})")
