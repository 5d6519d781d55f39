"""LiveHost: the optimistic protocol on real time, sockets, and disk.

The live adapter over the shared :class:`~repro.core.driver.ProtocolDriver`
(the simulator's is :mod:`repro.core.host`, the model checker's is
:mod:`repro.verify.explore`).  The driver runs the state machine,
interprets every :class:`~repro.core.effects.Effect` and keeps the
selective log, the ``logSet - {M}`` windows and the digest, so the
conformance layer holds live executions to the same Theorem 2 standard as
simulated ones by construction.  This module is the driver's
:class:`~repro.core.driver.RuntimePort` on live substrates:

==============================  ==============================================
Port member                     Live execution
==============================  ==============================================
``now``                         the running loop's clock
``send_control``                wire frame through the transport endpoint
``arm/cancel_convergence_…``    ``loop.call_later(timeout, ...)`` / cancel
``arm_initiation_timer``        ``loop.call_later(checkpoint_interval, ...)``
``capture_tentative``           optimistic flush to the worker's file-backed
                                stable-storage directory, journal, span
``store_finalized``             journal the increment, then write the versioned
                                ``C_{i,k}`` checkpoint file (CT ∪ selective
                                log), GC old generations
``report_anomaly``              journal + trace point
==============================  ==============================================

What is genuinely live stays here: frames, journal-before-send, receive
dedup, and recovery epochs, which guard against in-flight messages of a
discarded execution — every data frame carries the sender's epoch,
receivers drop older epochs and park newer ones until their own
``recover`` frame arrives.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..core.driver import ProtocolDriver, RuntimePort
from ..core.state_machine import MachineConfig
from ..core.types import (
    ControlMessage,
    FinalizedCheckpoint,
    TentativeCheckpoint,
)
from ..obs import NULL_TRACER, Tracer
from ..storage.serialize import checkpoint_to_dict
from .journal import Journal
from .storage import FileStableStorage
from .transport import Endpoint
from .wire import app_frame, ctl_frame, frame_control, frame_piggyback, make_uid


class LiveHost(RuntimePort):
    """One live worker: state machine + transport + disk + journal."""

    def __init__(self, pid: int, n: int, endpoint: Endpoint,
                 storage: FileStableStorage, journal: Journal, *,
                 checkpoint_interval: float = 1.0, timeout: float = 0.5,
                 epoch: int = 0, incarnation: int = 0,
                 state_bytes: int = 0,
                 machine_config: MachineConfig | None = None,
                 tracer: Tracer | None = None) -> None:
        self.pid = pid
        self.n = n
        self.endpoint = endpoint
        self.storage = storage
        self.journal = journal
        #: Structured protocol-phase tracing (repro.obs).  Defaults to the
        #: no-op tracer so every emission site can guard on ``.enabled``
        #: without a None check — zero cost when tracing is off.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.driver = ProtocolDriver(pid, n, self, machine_config)
        self.machine = self.driver.machine
        self.checkpoint_interval = checkpoint_interval
        self.timeout = timeout
        self.epoch = epoch
        self.incarnation = incarnation
        self.state_bytes = state_bytes
        self.finalized: dict[int, FinalizedCheckpoint] = {}
        # Real-time machinery ----------------------------------------------
        self._conv_timer: asyncio.TimerHandle | None = None
        self._init_timer: asyncio.TimerHandle | None = None
        self.stopped = asyncio.Event()
        #: Frames from a *newer* epoch, parked until our recover arrives.
        self._future_frames: list[dict[str, Any]] = []
        # Diagnostics -------------------------------------------------------
        self.anomalies = self.driver.anomalies
        self.sent_count = 0
        self.recv_count = 0
        self.stale_dropped = 0
        self.dup_dropped = 0
        #: App-message uids already processed — the idempotent-receive
        #: guard.  A retransmitted (or chaos-duplicated) frame must not
        #: double-apply to the digest, the log window, or the machine.
        #: uids are globally unique across incarnations (see make_uid),
        #: so the set survives rollbacks safely.
        self._seen_app_uids: set[int] = set()
        self._uid_counter = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fresh start: write the initial checkpoint C_{i,0}, arm timers."""
        self.journal.log("start", epoch=self.epoch, resume=None)
        fc = FinalizedCheckpoint(
            pid=self.pid, csn=0,
            tentative=TentativeCheckpoint(pid=self.pid, csn=0, taken_at=0.0,
                                          state_bytes=0, flushed_at=0.0),
            finalized_at=0.0, reason="initial")
        self.finalized[0] = fc
        # Disk first, unlike store_finalized: C_0 records nothing, so a
        # kill in between costs the replay no increment, while a journaled
        # C_0 that never reached the disk would leave resume(0) nothing.
        self.storage.write_finalized(0, checkpoint_to_dict(fc))
        self.journal.log("finalize", csn=0, reason="initial", exclude=None,
                         new_sent=[], new_recv=[], digest=0)
        self.arm_initiation_timer()

    def resume(self, seq: int) -> None:
        """Restart-from-disk after a crash: the paper's recovery at one
        process — restore ``CT_{i,seq}`` and replay ``logSet_{i,seq}``."""
        self.journal.log("start", epoch=self.epoch, resume=seq)
        self.storage.discard_above(seq)
        for csn in self.storage.finalized_csns():
            self.finalized[csn] = self.storage.load_finalized(csn)
        if seq not in self.finalized:
            raise ValueError(
                f"P{self.pid} cannot resume: no finalized C{seq} on disk")
        self.driver.rollback(self.finalized[seq])
        self.journal.log("rollback", seq=seq, epoch=self.epoch,
                         digest=self.driver.state_digest)
        self.arm_initiation_timer()

    async def run(self) -> None:
        """Receive loop: dispatch frames until stopped or disconnected.

        Deliberately a bare await-dispatch loop: the ``stop`` path is a
        frame (dispatched here) or an external cancellation (worker
        lifetime bound / supervisor kill), so there is no task-pair race
        to arbitrate — and no per-frame task creation, which is what
        capped the old loop's throughput.
        """
        try:
            while not self.stopped.is_set():
                frame = await self.endpoint.recv()
                if frame is None:
                    break
                self.dispatch(frame)
        finally:
            self._teardown()

    def stop(self) -> None:
        """Clean shutdown: journal, cancel timers, release the run loop."""
        if not self.stopped.is_set():
            self.journal.log("stop")
            self.stopped.set()
            self._teardown()

    def _teardown(self) -> None:
        """Cancel real-time callbacks (safe to call repeatedly)."""
        self.cancel_convergence_timer()
        if self._init_timer is not None:
            self._init_timer.cancel()
            self._init_timer = None

    # -- application-facing API -----------------------------------------------

    def app_send(self, dst: int, size: int = 0) -> int:
        """Send one application message with the protocol piggyback;
        returns the message uid."""
        self._uid_counter += 1
        uid = make_uid(self.pid, self.incarnation, self._uid_counter)
        pb = self.machine.piggyback()
        # Journal *before* the socket write: every uid a peer can receive
        # must have a send record even if we are SIGKILLed mid-send.  With
        # buffered journals the transport's pre_flush hook (Journal.flush)
        # preserves this ordering through to the disk.
        self.journal.log("send", uid=uid, dst=dst, size=size)
        self.driver.app_sent(uid, size)
        self.endpoint.send(app_frame(self.pid, dst, uid, size, pb,
                                     self.epoch))
        self.sent_count += 1
        return uid

    # -- frame dispatch --------------------------------------------------------

    def dispatch(self, frame: dict[str, Any]) -> None:
        """Handle one inbound frame (app / ctl / recover / stop)."""
        kind = frame["t"]
        if kind == "stop":
            self.stop()
            return
        if kind == "recover":
            self._on_recover(frame["seq"], frame["epoch"])
            return
        if kind == "ack":
            # Normally consumed by the resilience layer before reaching
            # the host; tolerated here so mixed configurations (peer
            # retransmitting, local resilience off) cannot crash a worker.
            return
        if kind not in ("app", "ctl"):
            raise ValueError(f"unexpected frame kind {kind!r}")
        epoch = frame.get("epoch", 0)
        if epoch < self.epoch:
            # In-flight leftover of a rolled-back execution: discard (the
            # live analogue of the simulator's drop_in_flight()).
            self.stale_dropped += 1
            return
        if epoch > self.epoch:
            # A peer already recovered into a newer epoch; park the frame
            # until our own recover order arrives.
            self._future_frames.append(frame)
            return
        if kind == "app":
            self._on_app(frame)
        else:
            self._on_ctl(frame)

    def _on_app(self, frame: dict[str, Any]) -> None:
        uid, size = frame["uid"], frame["size"]
        if uid in self._seen_app_uids:
            # Idempotent receive: a retransmission (or an injected
            # duplicate) of a message already processed — drop before any
            # journal/digest/log effect so nothing double-applies.
            self.dup_dropped += 1
            return
        self._seen_app_uids.add(uid)
        self.recv_count += 1
        self.journal.log("recv", uid=uid, src=frame["src"], size=size)
        self.driver.app_received(frame_piggyback(frame), uid, size)

    def _on_ctl(self, frame: dict[str, Any]) -> None:
        cm = frame_control(frame)
        if self.tracer.enabled:
            self.tracer.point("ctl.recv", self.now, pid=self.pid,
                              ctype=cm.ctype.value, csn=cm.csn,
                              src=frame["src"])
        self.driver.on_control(cm, frame["src"])

    # -- recovery ---------------------------------------------------------------

    def _on_recover(self, seq: int, epoch: int) -> None:
        """Supervisor-ordered system-wide rollback to generation ``seq``."""
        if epoch <= self.epoch:
            return  # duplicate or stale recovery order
        self.rollback(seq, epoch)
        parked, self._future_frames = self._future_frames, []
        for frame in parked:
            self.dispatch(frame)

    def rollback(self, seq: int, epoch: int) -> None:
        """Restore this worker to finalized ``C_{i,seq}`` in ``epoch``."""
        if seq not in self.finalized:
            raise ValueError(
                f"P{self.pid} has no finalized checkpoint {seq}")
        self.driver.rollback(self.finalized[seq])
        for csn in [c for c in sorted(self.finalized) if c > seq]:
            del self.finalized[csn]
        self.storage.discard_above(seq)
        self.epoch = epoch
        self.journal.log("rollback", seq=seq, epoch=epoch,
                         digest=self.driver.state_digest)
        if self.tracer.enabled:
            self.tracer.point("ckpt.rollback", self.now, pid=self.pid,
                              csn=seq, epoch=epoch)
        self.arm_initiation_timer()

    # -- RuntimePort: what the driver asks of the live runtime -------------------

    @property
    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def send_control(self, dst: int, cm: ControlMessage) -> None:
        if self.tracer.enabled:
            self.tracer.point("ctl.send", self.now, pid=self.pid,
                              ctype=cm.ctype.value, csn=cm.csn, dst=dst)
        self.endpoint.send(ctl_frame(self.pid, dst, cm, self.epoch))

    def arm_convergence_timer(self) -> None:
        self.cancel_convergence_timer()
        self._conv_timer = asyncio.get_running_loop().call_later(
            self.timeout, self._on_conv_timer)

    def cancel_convergence_timer(self) -> None:
        if self._conv_timer is not None:
            self._conv_timer.cancel()
            self._conv_timer = None

    def _on_conv_timer(self) -> None:
        self._conv_timer = None
        if not self.stopped.is_set():
            self.driver.on_timer()

    def arm_initiation_timer(self) -> None:
        if self._init_timer is not None:
            self._init_timer.cancel()
        self._init_timer = asyncio.get_running_loop().call_later(
            self.checkpoint_interval, self._on_init_timer)

    def _on_init_timer(self) -> None:
        if not self.stopped.is_set():
            self.driver.on_initiation_timer()

    def report_anomaly(self, description: str) -> None:
        self.journal.log("anomaly", description=description)
        if self.tracer.enabled:
            self.tracer.point("ckpt.anomaly", self.now, pid=self.pid,
                              description=description)

    def capture_tentative(self, csn: int, digest: int) -> TentativeCheckpoint:
        now = self.now
        # Optimistic flush "at the process's convenience" — the live host
        # flushes immediately; there is no queueing contention to dodge on
        # a local directory and it maximizes what a crash leaves behind.
        self.storage.write_tentative(csn, {
            "pid": self.pid, "csn": csn, "digest": digest,
            "state_bytes": self.state_bytes})
        self.journal.log("tentative", csn=csn, digest=digest)
        if self.tracer.enabled:
            self.tracer.span_start("tentative", f"{self.pid}:{csn}", now,
                                   pid=self.pid, csn=csn,
                                   bytes=self.state_bytes)
        return TentativeCheckpoint(pid=self.pid, csn=csn, taken_at=now,
                                   state_bytes=self.state_bytes,
                                   flushed_at=now, digest=digest)

    def store_finalized(self, fc: FinalizedCheckpoint,
                        exclude_uid: int | None) -> None:
        csn, now = fc.csn, fc.finalized_at
        self.finalized[csn] = fc
        # Journal (a flushing event) *before* the disk write: a C_k the
        # recovery line can use must have its increment in the journal, or
        # the replay would see its sends as unrecorded and their receives
        # as orphans.  The other order of failure — journaled but never
        # durable — is covered by the restart's ``rollback`` record, which
        # discards the generation.
        self.journal.log(
            "finalize", csn=csn, reason=fc.reason, exclude=exclude_uid,
            new_sent=sorted(fc.new_sent_uids),
            new_recv=sorted(fc.new_recv_uids), digest=fc.replay_digest())
        key = f"{self.pid}:{csn}"
        traced = self.tracer.enabled
        if traced:
            self.tracer.span_end("tentative", key, now, pid=self.pid,
                                 csn=csn, reason=fc.reason,
                                 log_msgs=len(fc.log_entries),
                                 log_bytes=fc.log_bytes)
            self.tracer.span_start("finalize", key, now, pid=self.pid,
                                   csn=csn,
                                   flush_bytes=self.state_bytes + fc.log_bytes)
        self.storage.write_finalized(csn, checkpoint_to_dict(fc))
        if traced:
            # The live flush is the synchronous write above; the finalize
            # span measures it on the loop clock (real disk latency).
            self.tracer.span_end("finalize", key, self.now,
                                 pid=self.pid, csn=csn)
        self.storage.gc_below(csn - 1)

    # -- inspection ----------------------------------------------------------------

    @property
    def status(self) -> str:
        """The machine's status string (for tests/diagnostics)."""
        return self.machine.stat.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LiveHost(P{self.pid}, csn={self.machine.csn}, "
                f"{self.status}, epoch={self.epoch}, "
                f"finalized={sorted(self.finalized)})")
