"""Shared scaffolding for baseline checkpointing protocols.

Every baseline host exposes the *same application surface* as the optimistic
host (``app_send`` / ``on_message`` driven by an
:class:`~repro.workload.app.AppBehavior`), so the comparison harness can run
one workload under every protocol.  This module centralizes:

* application-message bookkeeping (cumulative send/receive uid lists used
  to build :class:`~repro.causality.consistency.CheckpointRecord` cuts);
* control-message send helpers with per-type counters;
* send-blocking (Koo-Toueg's defining cost) with blocked-time accounting;
* state capture cost accounting and per-message response-delay tracking
  (the CIC forced-checkpoint-before-processing penalty).
"""

from __future__ import annotations

from typing import Any

from ..causality.consistency import CheckpointRecord
from ..des.engine import Simulator
from ..des.process import SimProcess
from ..net.message import Message
from ..net.network import Network
from ..storage.stable_storage import StableStorage


class BaselineRuntime:
    """Per-run context shared by a baseline's hosts."""

    def __init__(self, sim: Simulator, network: Network,
                 storage: StableStorage, horizon: float | None = None) -> None:
        self.sim = sim
        self.network = network
        self.storage = storage
        self.horizon = horizon
        self.hosts: dict[int, "BaselineHost"] = {}

    @property
    def n(self) -> int:
        return self.network.n

    def build(self, host_factory, apps: dict[int, Any] | None = None
              ) -> list["BaselineHost"]:
        """Create one host per node via ``host_factory(pid, sim, self, app)``."""
        hosts = []
        for pid in range(self.n):
            app = apps.get(pid) if apps else None
            host = host_factory(pid, self.sim, self, app)
            self.network.add_process(host)
            self.hosts[pid] = host
            hosts.append(host)
        return hosts

    def start(self) -> None:
        """Start every process (on_start hooks, protocol timers)."""
        self.network.start_all()

    def control_message_count(self, ctype: str | None = None) -> int:
        """Control messages sent, optionally filtered by type label."""
        total = 0
        for host in self.hosts.values():
            if ctype is None:
                total += sum(host.ctl_sent.values())
            else:
                total += host.ctl_sent.get(ctype, 0)
        return total

    def total_blocked_time(self) -> float:
        """Total application send-blocked time across hosts (Koo-Toueg)."""
        return sum(h.blocked_time for h in self.hosts.values())

    def total_checkpoints(self) -> int:
        """Checkpoints taken (written to stable storage) across hosts."""
        return sum(h.checkpoints_taken for h in self.hosts.values())

    def response_delays(self) -> list[float]:
        """Per-app-message pre-processing delays across all hosts."""
        out: list[float] = []
        for host in self.hosts.values():
            out.extend(host.response_delays)
        return out


class BaselineHost(SimProcess):
    """Common behaviour for baseline protocol hosts.

    Subclasses implement ``on_app_message(msg)`` (post-application protocol
    reaction) and ``on_control(msg)``; they may also override
    ``decorate_app_meta()`` to piggyback protocol state (CIC's index) and
    ``piggyback_bytes()`` to charge for it.
    """

    #: Message kind used for this protocol's control traffic.
    CTL_KIND = "ctl"

    def __init__(self, pid: int, sim: Simulator, runtime: BaselineRuntime,
                 app: Any = None, capture_time: float = 0.0) -> None:
        super().__init__(pid, sim)
        self.runtime = runtime
        self.app = app
        self.capture_time = capture_time
        # Verification bookkeeping ------------------------------------------------
        self.sent_uids: list[int] = []
        self.recv_uids: list[int] = []
        # Blocking (Koo-Toueg) -----------------------------------------------------
        self._send_blocked = False
        self._blocked_since = 0.0
        self._pending_sends: list[tuple[int, Any, int]] = []
        self.blocked_time = 0.0
        # Metrics --------------------------------------------------------------------
        self.ctl_sent: dict[str, int] = {}
        self.checkpoints_taken = 0
        self.response_delays: list[float] = []

    # -- app surface (mirrors OptimisticProcess) ----------------------------------

    def on_start(self) -> None:
        if self.app is not None:
            self.app.on_start(self)
        self.protocol_start()

    def protocol_start(self) -> None:
        """Subclass hook: arm protocol timers etc."""

    def app_send(self, dst: int, payload: Any = None,
                 size: int = 0) -> Message | None:
        """Send an application message (queued while sends are blocked).

        Returns ``None`` when the message was queued — queued sends are
        released (and actually transmitted) at unblock time, which is the
        performance penalty Koo-Toueg pays.
        """
        if self._send_blocked:
            self._pending_sends.append((dst, payload, size))
            return None
        meta = self.decorate_app_meta()
        msg = self.network.send(self.pid, dst, payload, size=size,
                                kind="app", meta=meta,
                                overhead_bytes=self.piggyback_bytes())
        self.sent_uids.append(msg.uid)
        self.on_app_sent(msg)
        return msg

    def decorate_app_meta(self) -> dict[str, Any] | None:
        """Piggyback for app messages (default: none)."""
        return None

    def piggyback_bytes(self) -> int:
        """Wire overhead charged per app message (default: none)."""
        return 0

    def on_app_sent(self, msg: Message) -> None:
        """Subclass hook after an app message leaves (e.g. sender logging)."""

    def on_message(self, msg: Message) -> None:
        if msg.kind == "app":
            delay = self.pre_process_delay(msg)
            self.response_delays.append(delay)
            if delay > 0:
                self.sim.schedule(delay, lambda: self._process_app(msg))
            else:
                self._process_app(msg)
        else:
            self.on_control(msg)

    def _process_app(self, msg: Message) -> None:
        if self.app is not None:
            self.app.on_message(self, msg)
        self.recv_uids.append(msg.uid)
        self.on_app_message(msg)

    def pre_process_delay(self, msg: Message) -> float:
        """Delay imposed *before* the application may process ``msg``.

        Zero by default; CIC returns the forced-checkpoint capture time —
        exactly the response-time inflation the paper criticizes (§1).
        """
        return 0.0

    def on_app_message(self, msg: Message) -> None:
        """Subclass hook after the application processed ``msg``."""

    def on_control(self, msg: Message) -> None:
        """Subclass hook for protocol control messages."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------------

    def send_control(self, dst: int, payload: Any, ctype: str,
                     nbytes: int = 16) -> Message:
        """Send one protocol control message (counted per ``ctype``)."""
        self.ctl_sent[ctype] = self.ctl_sent.get(ctype, 0) + 1
        self.trace("ctl.send", ctype=ctype, dst=dst)
        return self.network.send(self.pid, dst, payload, kind=self.CTL_KIND,
                                 overhead_bytes=nbytes)

    def broadcast_control(self, payload: Any, ctype: str,
                          nbytes: int = 16) -> None:
        """Send one control message to every other process."""
        for dst in range(self.runtime.n):
            if dst != self.pid:
                self.send_control(dst, payload, ctype, nbytes=nbytes)

    def block_sends(self) -> None:
        """Start queueing application sends (Koo-Toueg tentative phase)."""
        if not self._send_blocked:
            self._send_blocked = True
            self._blocked_since = self.sim.now
            self.trace("app.block")

    def unblock_sends(self) -> None:
        """Release queued sends; they are transmitted now (late)."""
        if not self._send_blocked:
            return
        self._send_blocked = False
        self.blocked_time += self.sim.now - self._blocked_since
        self.trace("app.unblock",
                   queued=len(self._pending_sends),
                   blocked=self.sim.now - self._blocked_since)
        pending, self._pending_sends = self._pending_sends, []
        for dst, payload, size in pending:
            self.app_send(dst, payload, size=size)

    @property
    def sends_blocked(self) -> bool:
        return self._send_blocked

    def take_checkpoint_write(self, nbytes: int, label: str,
                              callback=None) -> None:
        """Record a checkpoint write at the shared file server."""
        self.checkpoints_taken += 1
        self.runtime.storage.write(self.pid, nbytes, label=label,
                                   callback=callback)

    def marks(self) -> tuple[int, int]:
        """Snapshot of (sent, received) counts — a cut position."""
        return (len(self.sent_uids), len(self.recv_uids))

    def prefix_record(self, seq: int, taken_at: float,
                      finalized_at: float | None,
                      smark: int, rmark: int,
                      extra_sent: tuple[int, ...] = (),
                      extra_recv: tuple[int, ...] = (),
                      state_bytes: int = 0,
                      log_bytes: int = 0) -> CheckpointRecord:
        """Build a verification record from a cut position (+channel state)."""
        return CheckpointRecord(
            pid=self.pid, seq=seq, taken_at=taken_at,
            finalized_at=finalized_at,
            new_sent_uids=(frozenset(self.sent_uids[:smark])
                           | frozenset(extra_sent)),
            new_recv_uids=(frozenset(self.recv_uids[:rmark])
                           | frozenset(extra_recv)),
            state_bytes=state_bytes, log_bytes=log_bytes)
