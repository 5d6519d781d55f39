"""Koo-Toueg blocking coordinated checkpointing [5].

The synchronous baseline whose *blocking* the paper's introduction calls
out: a two-phase commit over checkpoints.

1. The coordinator takes a tentative checkpoint, **blocks application
   sends**, and requests a tentative checkpoint from every process.
2. Each process takes a tentative checkpoint (writing its state to the file
   server — all within one round-trip of each other: the contention spike),
   blocks its own sends, and acknowledges.
3. When all acknowledgements are in, the coordinator broadcasts *commit*;
   processes make the checkpoint permanent and unblock.

We implement the conservative full-participation variant (every process
checkpoints each round; the original only involves dependent processes —
with the all-to-all workloads used in the experiments the dependency set is
the full set anyway, and the paper compares against this class wholesale).

Cost profile: 3(N-1) control messages per round, state writes clustered in
time, and a send-blocked window of roughly a round-trip plus the slowest
state write per round — measured by ``blocked_time``.
"""

from __future__ import annotations

from typing import Any

from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

CTL_BYTES = 12


class KooTouegRuntime(BaselineRuntime):
    """Run context for the blocking two-phase protocol."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 coordinator: int = 0, horizon: float | None = None) -> None:
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.coordinator = coordinator

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: KooTouegHost(pid, sim, rt, app), apps)


class KooTouegHost(BaselineHost):
    """One process of the blocking two-phase protocol."""

    def __init__(self, pid: int, sim: Simulator, runtime: KooTouegRuntime,
                 app: Any = None) -> None:
        super().__init__(pid, sim, runtime, app)
        #: round -> (taken_at, smark, rmark); set when the tentative ckpt is taken.
        self.tentative_marks: dict[int, tuple[float, int, int]] = {}
        #: round -> commit time.
        self.committed: dict[int, float] = {}
        self._round_active = False
        self._acks_pending: set[int] = set()
        self._current_round = 0

    # -- coordinator driving -----------------------------------------------------

    def protocol_start(self) -> None:
        if self.pid == self.runtime.coordinator:
            self._arm_initiation()

    def _arm_initiation(self) -> None:
        horizon = self.runtime.horizon
        if horizon is not None and self.sim.now + self.runtime.interval > horizon:
            return
        self.set_timeout(self.runtime.interval, self._initiate)

    def _initiate(self) -> None:
        if not self._round_active:
            self._current_round += 1
            r = self._current_round
            self._round_active = True
            self._acks_pending = {p for p in range(self.runtime.n)
                                  if p != self.pid}
            self._take_tentative(r)
            self.broadcast_control(("kt_req", r), "KT_REQ", nbytes=CTL_BYTES)
            if not self._acks_pending:  # single-process degenerate case
                self._commit(r)
        self._arm_initiation()

    # -- phases --------------------------------------------------------------------

    def _take_tentative(self, r: int) -> None:
        smark, rmark = self.marks()
        self.tentative_marks[r] = (self.sim.now, smark, rmark)
        self._current_round = max(self._current_round, r)
        self.block_sends()
        self.trace("ckpt.tentative", csn=r, bytes=self.state_bytes)
        self.take_checkpoint_write(self.state_bytes,
                                   label=f"kt:{self.pid}:{r}")
        self.runtime.storage.space.retain(
            self.pid, f"state:{r}", self.state_bytes, self.sim.now)

    def _commit(self, r: int) -> None:
        self.committed[r] = self.sim.now
        self._round_active = False
        self.trace("ckpt.finalize", csn=r, reason="kt.commit")
        # The commit message certifies S_r is fully committed (the
        # coordinator saw every ack), so the previous generation is
        # immediately obsolete — the blocking protocol's one storage perk.
        if r >= 2:
            self.runtime.storage.space.release(self.pid, f"state:{r - 1}",
                                               self.sim.now)
        self.unblock_sends()

    def on_control(self, msg: Message) -> None:
        kind, r = msg.payload
        if kind == "kt_req":
            if r not in self.tentative_marks:
                self._take_tentative(r)
            self.send_control(msg.src, ("kt_ack", r), "KT_ACK",
                              nbytes=CTL_BYTES)
        elif kind == "kt_ack":
            assert self.pid == self.runtime.coordinator
            if r == self._current_round and self._round_active:
                self._acks_pending.discard(msg.src)
                if not self._acks_pending:
                    self.broadcast_control(("kt_commit", r), "KT_COMMIT",
                                           nbytes=CTL_BYTES)
                    self._commit(r)
        elif kind == "kt_commit":
            if r not in self.committed:
                self._commit(r)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown control payload {msg.payload!r}")

    # -- verification -------------------------------------------------------------------

    def cut_positions(self):
        """Per committed round."""
        for r, committed_at in sorted(self.committed.items()):
            taken_at, smark, rmark = self.tentative_marks[r]
            yield (r, taken_at, committed_at, smark, rmark, (), (), 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KooTouegHost(P{self.pid}, committed={sorted(self.committed)}, "
                f"blocked={self.blocked_time:.3g}s)")
