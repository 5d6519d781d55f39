"""Staggered consistent checkpointing (Plank [10] / Vaidya [11]).

The related-work baselines that attack the *same* problem as the paper —
file-server contention — by **serializing** checkpoint writes instead of
deferring them:

* a token starts at the coordinator; each process, on receiving the token,
  captures its state and writes it to the file server, forwarding the token
  only when its write *completes* — so at most one checkpoint write is in
  service at any time (perfect staggering, Vaidya's "all checkpoints
  staggered" variant; Plank's topology-limited staggering degenerates to
  this on the logical ring we stagger over);
* consistency across the staggered instants comes from Vaidya's logical
  checkpoint device: every process **logs the application messages it
  sends** between its own checkpoint and the end of the round, making them
  replayable and hence never orphans;
* when the token returns, the coordinator broadcasts ``round end``; each
  process flushes its send log and the round is complete.

Cost profile: near-zero write contention (that is the point) but a round
takes ``N × (write time + token hop)`` — long rounds, growing linearly in
N, versus the optimistic protocol's constant-ish convergence time.  E3/E10
exhibit exactly this trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..causality.consistency import round_latencies
from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

CTL_BYTES = 12


@dataclass
class StaggerRound:
    """Per-round state at one process."""

    round_id: int
    taken_at: float
    smark: int
    rmark: int
    logging: bool = True
    logged_uids: list[int] = field(default_factory=list)
    log_bytes: int = 0
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class StaggeredRuntime(BaselineRuntime):
    """Run context for token-staggered checkpointing."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 coordinator: int = 0, horizon: float | None = None) -> None:
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.coordinator = coordinator

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: StaggeredHost(pid, sim, rt, app), apps)

    def round_latencies(self) -> list[float]:
        """End-to-end duration of each complete round (start at coordinator
        checkpoint, end at the last process's completion)."""
        return list(round_latencies(self.global_records()).values())


class StaggeredHost(BaselineHost):
    """One process of the token-staggered protocol."""

    def __init__(self, pid: int, sim: Simulator, runtime: StaggeredRuntime,
                 app: Any = None) -> None:
        super().__init__(pid, sim, runtime, app)
        self.rounds: dict[int, StaggerRound] = {}
        self._next_round = 1
        self._round_active = False  # coordinator only

    # -- coordinator driving ---------------------------------------------------

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
            self._round_active = True
            r = self._next_round
            self._next_round += 1
            self._take_checkpoint(r)
        self._arm_initiation()

    # -- token protocol ------------------------------------------------------------

    def _take_checkpoint(self, r: int) -> None:
        smark, rmark = self.marks()
        st = StaggerRound(round_id=r, taken_at=self.sim.now,
                          smark=smark, rmark=rmark)
        self.rounds[r] = st
        self.trace("ckpt.tentative", csn=r, bytes=self.state_bytes)
        self.runtime.storage.space.retain(
            self.pid, f"state:{r}", self.state_bytes, self.sim.now)
        # The defining move: forward the token only once OUR write finished,
        # so writes are serialized at the file server.
        self.take_checkpoint_write(
            self.state_bytes, label=f"stag:{self.pid}:{r}",
            callback=lambda req: self._write_done(r))

    def _write_done(self, r: int) -> None:
        nxt = (self.pid + 1) % self.runtime.n
        if nxt == self.runtime.coordinator:
            # Token would return: the round's staggered writes are done.
            if self.pid == self.runtime.coordinator:
                # Degenerate single-process system.
                self._end_round(r)
            else:
                self.send_control(self.runtime.coordinator,
                                  ("stag_done", r), "TOKEN", nbytes=CTL_BYTES)
        else:
            self.send_control(nxt, ("stag_token", r), "TOKEN",
                              nbytes=CTL_BYTES)

    def on_control(self, msg: Message) -> None:
        kind, r = msg.payload
        if kind == "stag_token":
            if r not in self.rounds:
                self._take_checkpoint(r)
        elif kind == "stag_done":
            assert self.pid == self.runtime.coordinator
            self.broadcast_control(("stag_end", r), "END", nbytes=CTL_BYTES)
            self._end_round(r)
            self._round_active = False
        elif kind == "stag_end":
            self._end_round(r)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown control payload {msg.payload!r}")

    def _end_round(self, r: int) -> None:
        st = self.rounds.get(r)
        if st is None or st.complete:
            return
        st.logging = False
        st.completed_at = self.sim.now
        self.trace("ckpt.finalize", csn=r, reason="stag.end",
                   log_msgs=len(st.logged_uids), log_bytes=st.log_bytes)
        # Flush the sender-side log (Vaidya's logical-checkpoint payload).
        self.runtime.storage.write(self.pid, st.log_bytes,
                                   label=f"stag-log:{self.pid}:{r}")
        space = self.runtime.storage.space
        space.retain(self.pid, f"log:{r}", st.log_bytes, self.sim.now)
        # Round end certifies every process checkpointed round r: the
        # generation before the previous one is obsolete.
        if r >= 2:
            space.release(self.pid, f"state:{r - 2}", self.sim.now)
            space.release(self.pid, f"log:{r - 2}", self.sim.now)

    # -- sender-side logging -----------------------------------------------------------

    def on_app_sent(self, msg: Message) -> None:
        for st in self.rounds.values():
            if st.logging and not st.complete:
                st.logged_uids.append(msg.uid)
                st.log_bytes += msg.total_bytes

    # -- verification ---------------------------------------------------------------------

    def cut_positions(self):
        """Per complete round, incl. the sender-side log."""
        return [(r, st.taken_at, st.completed_at, st.smark, st.rmark,
                 st.logged_uids, (), st.log_bytes)
                for r, st in sorted(self.rounds.items()) if st.complete]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaggeredHost(P{self.pid}, rounds={sorted(self.rounds)})"
