"""Chandy-Lamport distributed snapshots [3] — the classic synchronous baseline.

Marker algorithm over **FIFO** channels (the paper's own system model is
non-FIFO; Chandy-Lamport is the reference point that *requires* FIFO, which
is why the comparison harness builds its network with ``fifo=True`` for this
protocol only):

* the coordinator starts round ``r`` by recording its state and sending a
  ``marker(r)`` on every outgoing channel;
* a process receiving its first ``marker(r)`` records its state, sends
  markers on all outgoing channels, and starts recording every incoming
  channel except the marker's;
* messages arriving on a still-recorded channel become *channel state*;
* the round completes at a process once markers arrived on all incoming
  channels; the recorded channel state is then flushed.

Cost profile (what the experiments show): every process records (and writes)
its state within one marker-latency of the initiation — the file-server
contention spike the paper's optimistic scheme avoids — and each round costs
``N·(N-1)`` markers on a complete graph.

Rounds may overlap in flight (markers of round ``r+1`` can overtake stale
round-``r`` markers on *other* channels), so per-round state is kept in a
:class:`SnapshotRound` table rather than scalar fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

MARKER_BYTES = 8


@dataclass
class SnapshotRound:
    """Per-round snapshot state at one process."""

    round_id: int
    recorded_at: float
    smark: int
    rmark: int
    #: Channels (by peer pid) whose marker has not arrived yet.
    pending: set[int]
    #: uids of messages captured as channel state.
    channel_uids: list[int] = field(default_factory=list)
    channel_bytes: int = 0
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class ChandyLamportRuntime(BaselineRuntime):
    """Run context: coordinated rounds + verification surface."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 coordinator: int = 0, horizon: float | None = None) -> None:
        if not network.fifo:
            raise ValueError(
                "Chandy-Lamport requires FIFO channels; build the Network "
                "with fifo=True")
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.coordinator = coordinator

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: ChandyLamportHost(pid, sim, rt, app),
            apps)


class ChandyLamportHost(BaselineHost):
    """One process of the Chandy-Lamport algorithm."""

    def __init__(self, pid: int, sim: Simulator,
                 runtime: ChandyLamportRuntime, app: Any = None) -> None:
        super().__init__(pid, sim, runtime, app)
        self.rounds: dict[int, SnapshotRound] = {}
        self._next_round = 1

    # -- round driving (coordinator only) -----------------------------------------

    def protocol_start(self) -> None:
        if self.pid == self.runtime.coordinator:
            self._arm_initiation()

    def _arm_initiation(self) -> None:
        horizon = self.runtime.horizon
        if horizon is not None and self.sim.now + self.runtime.interval > horizon:
            return
        self.set_timeout(self.runtime.interval, self._initiate)

    def _initiate(self) -> None:
        # Skip if our previous round has not completed (mirrors the paper's
        # one-round-at-a-time discipline for its own protocol).
        prev = self.rounds.get(self._next_round - 1)
        if prev is None or prev.complete or self._next_round == 1:
            r = self._next_round
            self._next_round += 1
            self._record_state(r, exclude_channel=None)
        self._arm_initiation()

    # -- marker handling ----------------------------------------------------------

    def _record_state(self, round_id: int, exclude_channel: int | None) -> None:
        """Record local state for ``round_id`` and emit markers."""
        smark, rmark = self.marks()
        pending = {p for p in range(self.runtime.n) if p != self.pid}
        if exclude_channel is not None:
            pending.discard(exclude_channel)
        st = SnapshotRound(round_id=round_id, recorded_at=self.sim.now,
                           smark=smark, rmark=rmark, pending=pending)
        self.rounds[round_id] = st
        self._next_round = max(self._next_round, round_id + 1)
        self.trace("ckpt.tentative", csn=round_id,
                   bytes=self.state_bytes)
        # The state write hits the file server *now* — all N processes do
        # this within one marker flood, which is the contention spike.
        self.take_checkpoint_write(self.state_bytes,
                                   label=f"cl:{self.pid}:{round_id}")
        self.runtime.storage.space.retain(
            self.pid, f"state:{round_id}", self.state_bytes,
            self.sim.now)
        for dst in range(self.runtime.n):
            if dst != self.pid:
                self.send_control(dst, ("marker", round_id), "MARKER",
                                  nbytes=MARKER_BYTES)
        if not st.pending:
            self._complete(st)

    def on_control(self, msg: Message) -> None:
        kind, round_id = msg.payload
        assert kind == "marker", f"unexpected control payload {msg.payload!r}"
        st = self.rounds.get(round_id)
        if st is None:
            # First marker of this round: record state; the marker's channel
            # carries no channel state (it was empty up to the marker).
            self._record_state(round_id, exclude_channel=msg.src)
        else:
            st.pending.discard(msg.src)
            if not st.pending and not st.complete:
                self._complete(st)

    def _complete(self, st: SnapshotRound) -> None:
        st.completed_at = self.sim.now
        self.trace("ckpt.finalize", csn=st.round_id,
                   log_msgs=len(st.channel_uids),
                   log_bytes=st.channel_bytes, reason="cl.markers")
        # Flush the recorded channel state (a second, usually small write).
        self.runtime.storage.write(self.pid, st.channel_bytes,
                                   label=f"cl-chan:{self.pid}:{st.round_id}")
        space = self.runtime.storage.space
        space.retain(self.pid, f"chan:{st.round_id}", st.channel_bytes,
                     self.sim.now)
        # Two-generation GC: completing round r certifies every process
        # recorded round r, so generations <= r-2 are obsolete.
        if st.round_id >= 2:
            space.release(self.pid, f"state:{st.round_id - 2}", self.sim.now)
            space.release(self.pid, f"chan:{st.round_id - 2}", self.sim.now)

    # -- channel-state capture -------------------------------------------------------

    def on_app_message(self, msg: Message) -> None:
        for st in self.rounds.values():
            if not st.complete and msg.src in st.pending:
                st.channel_uids.append(msg.uid)
                st.channel_bytes += msg.total_bytes

    # -- verification -------------------------------------------------------------------

    def cut_positions(self):
        """Per complete round, incl. the recorded channel state."""
        return [(r, st.recorded_at, st.completed_at, st.smark, st.rmark,
                 (), st.channel_uids, st.channel_bytes)
                for r, st in sorted(self.rounds.items()) if st.complete]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChandyLamportHost(P{self.pid}, "
                f"rounds={sorted(self.rounds)})")
