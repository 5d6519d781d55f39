"""Fully asynchronous (uncoordinated) checkpointing, with optional logging.

The paper's §1 opening act: processes checkpoint independently, with zero
coordination cost — and pay for it at recovery time with the **domino
effect**.  Optionally, receivers log every delivered application message
(Johnson-Zwaenepoel-style optimistic logging [4]), which makes received
messages replayable and eliminates orphans, bounding rollback.

The host records, per checkpoint, its cut position and (when logging) the
set of logged uids; :mod:`repro.recovery` replays a failure against this
data via the recovery-line fixpoint to measure rollback distance and domino
depth — experiment E8's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..causality.recovery_line import IntervalMessage
from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime


@dataclass(frozen=True)
class LocalCheckpoint:
    """One independent checkpoint at one process."""

    number: int           # 1, 2, ... (0 = implicit initial state)
    taken_at: float
    smark: int
    rmark: int


class UncoordinatedRuntime(BaselineRuntime):
    """Run context for independent checkpointing."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 log_messages: bool = False,
                 horizon: float | None = None) -> None:
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.log_messages = log_messages

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: UncoordinatedHost(pid, sim, rt, app),
            apps)

    # -- recovery-analysis surface ------------------------------------------------

    def interval_messages(self) -> list[IntervalMessage]:
        """Locate every delivered app message by its endpoints' checkpoint
        intervals (input to the recovery-line fixpoint)."""
        send_interval: dict[int, tuple[int, int]] = {}
        for pid, host in self.hosts.items():
            for i, uid in enumerate(host.sent_uids):
                send_interval[uid] = (pid, host.interval_of_send(i))
        out: list[IntervalMessage] = []
        for pid, host in self.hosts.items():
            for i, uid in enumerate(host.recv_uids):
                src, s_iv = send_interval[uid]
                out.append(IntervalMessage(
                    src=src, src_interval=s_iv, dst=pid,
                    dst_interval=host.interval_of_recv(i), uid=uid))
        return out

    def latest_checkpoint_numbers(self) -> dict[int, int]:
        """pid -> number of its most recent checkpoint (0 if none yet)."""
        return {pid: (host.checkpoints[-1].number if host.checkpoints else 0)
                for pid, host in self.hosts.items()}

    def logged_uids(self) -> set[int]:
        """All receiver-logged message uids (empty unless logging is on)."""
        out: set[int] = set()
        for host in self.hosts.values():
            out |= host.logged_uids
        return out


class UncoordinatedHost(BaselineHost):
    """One independently-checkpointing process."""

    def __init__(self, pid: int, sim: Simulator,
                 runtime: UncoordinatedRuntime, app: Any = None) -> None:
        super().__init__(pid, sim, runtime, app)
        self.checkpoints: list[LocalCheckpoint] = []
        self.logged_uids: set[int] = set()
        self.log_bytes = 0

    def protocol_start(self) -> None:
        self._arm()

    def _arm(self) -> None:
        rng = self.sim.rng.stream(f"uncoord.{self.pid}")
        delay = self.runtime.interval * float(rng.uniform(0.8, 1.2))
        horizon = self.runtime.horizon
        if horizon is not None and self.sim.now + delay > horizon:
            return
        self.set_timeout(delay, self._checkpoint)

    def _checkpoint(self) -> None:
        smark, rmark = self.marks()
        ck = LocalCheckpoint(number=len(self.checkpoints) + 1,
                             taken_at=self.sim.now, smark=smark, rmark=rmark)
        self.checkpoints.append(ck)
        self.trace("ckpt.tentative", csn=ck.number,
                   bytes=self.state_bytes)
        self.take_checkpoint_write(self.state_bytes,
                                   label=f"async:{self.pid}:{ck.number}")
        # The domino effect can roll a process back to ANY of its
        # checkpoints, so none can be safely deleted — the storage-bloat
        # cost of uncoordinated checkpointing (paper §1, E13).
        self.runtime.storage.space.retain(
            self.pid, f"ckpt:{ck.number}", self.state_bytes,
            self.sim.now)
        self._arm()

    def on_app_message(self, msg: Message) -> None:
        if self.runtime.log_messages:
            self.logged_uids.add(msg.uid)
            self.log_bytes += msg.total_bytes
            # Async log flush: small sequential appends, modelled as writes.
            self.runtime.storage.write(self.pid, msg.total_bytes,
                                       label=f"mlog:{self.pid}")
            self.runtime.storage.space.retain(self.pid, "mlog",
                                              self.log_bytes, self.sim.now)

    def on_control(self, msg: Message) -> None:  # pragma: no cover - none sent
        raise ValueError("uncoordinated checkpointing sends no control messages")

    # -- interval lookups for recovery analysis -----------------------------------------

    def interval_of_send(self, sent_pos: int) -> int:
        """Checkpoint interval containing the ``sent_pos``-th send.

        Interval m = execution between checkpoint m and m+1; a send at list
        position p is in interval m where m = number of checkpoints whose
        ``smark`` is <= p.
        """
        return sum(1 for ck in self.checkpoints if ck.smark <= sent_pos)

    def interval_of_recv(self, recv_pos: int) -> int:
        """Checkpoint interval containing the ``recv_pos``-th receive."""
        return sum(1 for ck in self.checkpoints if ck.rmark <= recv_pos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"UncoordinatedHost(P{self.pid}, "
                f"ckpts={len(self.checkpoints)}, logged={len(self.logged_uids)})")
