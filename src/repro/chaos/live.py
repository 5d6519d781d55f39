"""Live-runtime fault injection: endpoint and storage interposers.

The live half of the chaos engine (the DES half is
:mod:`repro.chaos.des`).  The same :class:`~repro.chaos.plan.FaultPlan`
vocabulary drives both; here faults act on real asyncio wall time.

Layering matters: the chaos endpoint sits *below* the resilience layer
(:mod:`repro.live.resilience`), i.e. ::

    LiveHost -> ResilientEndpoint -> ChaosEndpoint -> real transport

so retransmitted frames traverse the faulty wire again — exactly like a
lossy network — and ``ack`` frames pass untouched (a fault's ``frames``
filter only matches ``app``/``ctl``), which keeps retransmission storms
bounded.

Storage faults hook :attr:`repro.live.storage.FileStableStorage.fault_hook`:
``torn-write`` leaves a partial ``*.tmp`` file then fails the attempt,
``fsync-fail`` fails the attempt outright, ``slow-flush`` stalls the
write — the first two are healed by the storage layer's bounded retry,
proving the atomic tmp+rename discipline.

This module is *not* inside the REP001/REP002-exempt live packages, so
its wall-clock and RNG uses carry explicit, audited suppressions (see
``tests/chaos/test_lint_audit.py``).
"""

from __future__ import annotations

import asyncio
import random
import time
from pathlib import Path
from typing import Any, Callable

from ..live.journal import iter_run_journals
from ..live.storage import FileStableStorage
from ..live.transport import Endpoint
from ..obs import NULL_TRACER, Tracer
from .plan import FaultPlan, PARTITION_KINDS, STORAGE_KINDS, WIRE_KINDS

#: Gap between an original frame and its injected duplicate (seconds).
DUP_SPACING = 0.01


class ChaosEndpoint(Endpoint):
    """Seeded fault interposer around a live transport endpoint.

    Only the *send* side injects (each worker corrupts its own outbound
    wire, like a faulty NIC); the receive side is a passthrough.  Held
    frames (reorder, partition) are flushed no later than their fault
    window's end, so no frame is held forever.
    """

    def __init__(self, inner: Endpoint, plan: FaultPlan, *,
                 seed: int = 0, tracer: Tracer | None = None) -> None:
        plan.validate()
        self.inner = inner
        self.pid = inner.pid
        self.epoch = inner.epoch
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: fault kind -> number of injections performed.
        self.injected: dict[str, int] = {}
        # Seeded per (plan seed, pid): reruns of a local-transport cell
        # draw the same fault decisions in the same per-worker order.
        self._rng = random.Random((plan.seed << 16) ^ (self.pid + 1))  # repro: allow[REP002] chaos faults are seeded wall-clock injection, not simulated state
        self._loop = asyncio.get_event_loop()
        self._t0 = self._loop.time()
        #: fault index -> held frame awaiting a swap partner (reorder).
        self._reorder_held: dict[int, dict[str, Any]] = {}
        #: fault index -> frames parked until the partition heals.
        self._partition_held: dict[int, list[dict[str, Any]]] = {}
        self._heal_scheduled: set[int] = set()
        self._timers: list[asyncio.TimerHandle] = []
        self._closed = False

    # -- bookkeeping -------------------------------------------------------

    def _now(self) -> float:
        """Seconds since the endpoint (≈ the run) started."""
        return self._loop.time() - self._t0

    def _count(self, kind: str, **attrs: Any) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self.tracer.enabled:
            self.tracer.point(f"chaos.{kind}", self._loop.time(),
                              pid=self.pid, **attrs)

    def _later(self, delay: float, fn: Any, *args: Any) -> None:
        self._timers.append(self._loop.call_later(delay, fn, *args))

    # -- send-side injection -----------------------------------------------

    def send(self, frame: dict[str, Any]) -> None:
        if self._closed:
            return
        t = frame.get("t")
        if t not in ("app", "ctl") or not self.plan:
            self.inner.send(frame)
            return
        now = self._now()
        for index, fault in enumerate(self.plan.faults):
            if t not in fault.frames or not fault.active(now):
                continue
            if fault.kind in PARTITION_KINDS:
                if self._crosses(fault, frame):
                    self._park(index, fault, frame)
                    return
                continue
            if fault.kind not in WIRE_KINDS:
                continue
            if self._rng.random() >= fault.p:
                continue
            # First triggered fault decides this frame's fate.
            if fault.kind == "drop":
                self._count("drop", frame=t)
                return
            if fault.kind == "duplicate":
                self._count("duplicate", frame=t)
                self._later(DUP_SPACING, self.inner.send, dict(frame))
                break    # the original still goes out below
            if fault.kind == "delay":
                self._count("delay", frame=t, delay=fault.delay)
                self._later(fault.delay, self.inner.send, frame)
                return
            if fault.kind == "reorder":
                held = self._reorder_held.pop(index, None)
                if held is not None:
                    # Swap: this (later) frame first, the held one after.
                    self._count("reorder", frame=t)
                    self.inner.send(frame)
                    self.inner.send(held)
                    return
                self._reorder_held[index] = frame
                # Failsafe: never hold past the fault window.
                self._later(max(0.0, fault.end - now),
                            self._flush_reorder, index)
                return
        self.inner.send(frame)

    def _crosses(self, fault: Any, frame: dict[str, Any]) -> bool:
        """Does this frame cross the partition cut?"""
        src = frame.get("src", self.pid)
        dst = frame.get("dst")
        return ((src in fault.group_a and dst in fault.group_b)
                or (src in fault.group_b and dst in fault.group_a))

    def _park(self, index: int, fault: Any, frame: dict[str, Any]) -> None:
        """Hold a cross-cut frame until the partition heals."""
        self._partition_held.setdefault(index, []).append(frame)
        self._count("partition", frame=frame.get("t"))
        if index not in self._heal_scheduled:
            self._heal_scheduled.add(index)
            self._later(max(0.0, fault.end - self._now()),
                        self._heal, index)

    def _heal(self, index: int) -> None:
        """Partition window ended: release parked frames in send order."""
        held = self._partition_held.pop(index, [])
        if self._closed:
            return
        if held and self.tracer.enabled:
            self.tracer.point("chaos.heal", self._loop.time(),
                              pid=self.pid, released=len(held))
        for frame in held:
            self.inner.send(frame)

    def _flush_reorder(self, index: int) -> None:
        """Reorder window ended with a frame still held: let it go."""
        held = self._reorder_held.pop(index, None)
        if held is not None and not self._closed:
            self.inner.send(held)

    # -- passthrough -------------------------------------------------------

    async def recv(self) -> dict[str, Any] | None:
        return await self.inner.recv()

    async def drain(self) -> None:
        await self.inner.drain()

    def set_pre_flush(self, hook: Callable[[], None]) -> None:
        self.inner.set_pre_flush(hook)

    def close(self) -> None:
        self._closed = True
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self.inner.close()


# --------------------------------------------------------------------------
# storage faults
# --------------------------------------------------------------------------


class ChaosStorage:
    """Storage-fault injector installed as a ``FileStableStorage.fault_hook``.

    ``injected`` counts the faults actually fired; the storage layer's
    ``retried_writes`` counter is the matching recovery evidence.
    """

    def __init__(self, storage: FileStableStorage, plan: FaultPlan, *,
                 seed: int = 0) -> None:
        plan.validate()
        self.storage = storage
        self.faults = [f for _, f in plan.storage_faults()]
        self.injected: dict[str, int] = {}
        self._rng = random.Random((plan.seed << 16) ^ (seed + 0x5afe))  # repro: allow[REP002] seeded storage-fault draws against wall-clock windows
        self._t0 = time.monotonic()  # repro: allow[REP001] live chaos window clock, never feeds simulated state
        if self.faults:
            storage.fault_hook = self

    def __call__(self, label: str, attempt: int) -> None:
        """The hook: runs before every stable-storage write attempt."""
        now = time.monotonic() - self._t0  # repro: allow[REP001] live chaos window clock, never feeds simulated state
        for fault in self.faults:
            if not fault.active(now) or self._rng.random() >= fault.p:
                continue
            if fault.kind == "slow-flush":
                self.injected["slow-flush"] = (
                    self.injected.get("slow-flush", 0) + 1)
                time.sleep(fault.delay)
                continue
            if attempt > 0:
                # torn-write / fsync-fail hit the first attempt only, so
                # the bounded retry is guaranteed to heal the write.
                continue
            self.injected[fault.kind] = self.injected.get(fault.kind, 0) + 1
            if fault.kind == "torn-write":
                # Leave a partial tmp file behind: the atomic tmp+rename
                # discipline must ignore it on every read path.
                torn = self.storage.root / (
                    "torn-" + label.replace(":", "-") + ".json.tmp")
                torn.write_text('{"torn": tru', encoding="utf-8")
            raise OSError(f"chaos:{fault.kind}:{label}")


def chaos_storage(storage: FileStableStorage, plan: FaultPlan, *,
                  seed: int = 0) -> ChaosStorage:
    """Attach storage faults from ``plan`` to a live storage instance."""
    return ChaosStorage(storage, plan, seed=seed)


# --------------------------------------------------------------------------
# post-run evidence
# --------------------------------------------------------------------------


def lost_messages(run_dir: str | Path, *, grace: float = 1.0) -> list[int]:
    """App uids journaled as sent but never received anywhere.

    The delivery-completeness check for live wire-fault cells: with the
    resilience layer on, every injected drop/duplicate/reorder/partition
    must heal and this list is empty (modulo the trailing ``grace``
    seconds, where a send can race the shutdown broadcast).  With
    retries disabled, seeded drops show up here — the chaos matrix's
    discrimination signal.  Not meaningful for crash cells: frames to a
    dead worker are legitimately lost and rolled back.
    """
    sends: dict[int, float] = {}
    recvs: set[int] = set()
    last_wall = 0.0
    for _pid, _inc, events in iter_run_journals(run_dir):
        for ev in events:
            wall = ev.get("wall", 0.0)
            last_wall = max(last_wall, wall)
            if ev["ev"] == "send":
                sends[ev["uid"]] = wall
            elif ev["ev"] == "recv":
                recvs.add(ev["uid"])
    cutoff = last_wall - grace
    return sorted(uid for uid, wall in sends.items()
                  if uid not in recvs and wall < cutoff)
