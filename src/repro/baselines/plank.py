"""Plank's topology-limited staggered checkpointing [10].

Plank's scheme (the paper's §4 description): a Chandy-Lamport-style round
in which physical checkpoint writes are staggered *as much as the topology
allows* — processes at the same distance from the coordinator write
simultaneously, successive distance classes write in waves.  The paper's
pointed remark, reproduced by experiment E3d:

    "a completely connected topology would subvert staggering in this
    algorithm"

— on a complete graph every non-coordinator is at distance 1, so all N−1
state writes still collide; on a line the waves have width 1 and staggering
is perfect (Vaidya's token variant, :mod:`.staggered`, achieves that width
on *any* topology, which is exactly his improvement over Plank).

Round structure:

1. the coordinator takes its logical checkpoint, floods ``snap(r)``, and
   writes its own state (wave 0);
2. on ``snap(r)`` every process takes a *logical* checkpoint (cut marks +
   start of sender-side logging — Vaidya's logical-checkpoint device keeps
   the staggered instants consistent);
3. when all writes of wave ``d`` complete (acked to the coordinator), the
   coordinator broadcasts ``wave(d+1)``; processes at BFS depth ``d+1``
   write;
4. after the last wave the coordinator broadcasts ``end(r)``; everyone
   flushes its send log and the round completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..causality.consistency import CheckpointRecord
from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

CTL_BYTES = 12


@dataclass
class PlankRound:
    """Per-round state at one process."""

    round_id: int
    taken_at: float
    smark: int
    rmark: int
    logging: bool = True
    logged_uids: list[int] = field(default_factory=list)
    log_bytes: int = 0
    wrote: bool = False
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class PlankStaggeredRuntime(BaselineRuntime):
    """Run context: BFS-depth write waves from the coordinator."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 coordinator: int = 0, horizon: float | None = None) -> None:
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.coordinator = coordinator
        lengths = network.topology.hops_from(coordinator)
        #: pid -> BFS depth from the coordinator (wave index).
        self.depth = {pid: lengths[pid] for pid in range(network.n)}
        self.max_depth = max(self.depth.values())
        #: depth -> number of processes writing in that wave.
        self.wave_width = {d: sum(1 for v in self.depth.values() if v == d)
                           for d in range(self.max_depth + 1)}

    def build(self, apps: dict[int, Any] | None = None):
        """Create one Plank host per node."""
        return super().build(
            lambda pid, sim, rt, app: PlankStaggeredHost(pid, sim, rt, app),
            apps)

    def complete_rounds(self) -> list[int]:
        """Rounds whose end broadcast reached every process."""
        common: set[int] | None = None
        for host in self.hosts.values():
            done = {r for r, st in host.rounds.items() if st.complete}
            common = done if common is None else common & done
        return sorted(common or ())

    def global_records(self) -> dict[int, dict[int, CheckpointRecord]]:
        """Per complete round: every process's CheckpointRecord."""
        return {r: {pid: host.round_record(r)
                    for pid, host in self.hosts.items()}
                for r in self.complete_rounds()}


class PlankStaggeredHost(BaselineHost):
    """One process of Plank's wave-staggered protocol."""

    def __init__(self, pid: int, sim: Simulator,
                 runtime: PlankStaggeredRuntime, app: Any = None) -> None:
        super().__init__(pid, sim, runtime, app)
        self.rounds: dict[int, PlankRound] = {}
        self._next_round = 1
        self._round_active = False        # coordinator only
        self._wave_pending: int = 0        # coordinator: acks awaited
        self._current_wave: int = 0

    # -- coordinator driving -----------------------------------------------------

    def protocol_start(self) -> None:
        """Arm periodic round initiation at the coordinator."""
        if self.pid == self.runtime.coordinator:
            self._arm_initiation()

    def _arm_initiation(self) -> None:
        horizon = self.runtime.horizon
        if horizon is not None and \
                self.sim.now + self.runtime.interval > horizon:
            return
        self.set_timeout(self.runtime.interval, self._initiate)

    def _initiate(self) -> None:
        if not self._round_active:
            self._round_active = True
            r = self._next_round
            self._next_round += 1
            self.broadcast_control(("pl_snap", r), "SNAP", nbytes=CTL_BYTES)
            self._snap(r)
            # Wave 0: the coordinator itself.
            self._current_wave = 0
            self._wave_pending = 1
            self._write_state(r)
        self._arm_initiation()

    # -- snapshot + waves -----------------------------------------------------------

    def _snap(self, r: int) -> None:
        if r in self.rounds:
            return
        smark, rmark = self.marks()
        self.rounds[r] = PlankRound(round_id=r, taken_at=self.sim.now,
                                    smark=smark, rmark=rmark)
        self.trace("ckpt.tentative", csn=r, bytes=self.runtime.state_bytes,
                   forced=False)

    def _write_state(self, r: int) -> None:
        st = self.rounds[r]
        if st.wrote:
            return
        st.wrote = True
        self.runtime.storage.space.retain(
            self.pid, f"state:{r}", self.runtime.state_bytes, self.sim.now)
        self.take_checkpoint_write(
            self.runtime.state_bytes, label=f"plank:{self.pid}:{r}",
            callback=lambda req: self._write_done(r))

    def _write_done(self, r: int) -> None:
        if self.pid == self.runtime.coordinator:
            self._on_wave_ack(r)
        else:
            self.send_control(self.runtime.coordinator, ("pl_done", r),
                              "DONE", nbytes=CTL_BYTES)

    def _on_wave_ack(self, r: int) -> None:
        assert self.pid == self.runtime.coordinator
        self._wave_pending -= 1
        if self._wave_pending > 0:
            return
        if self._current_wave < self.runtime.max_depth:
            self._current_wave += 1
            self._wave_pending = self.runtime.wave_width[self._current_wave]
            self.broadcast_control(("pl_wave", r, self._current_wave),
                                   "WAVE", nbytes=CTL_BYTES)
        else:
            self.broadcast_control(("pl_end", r), "END", nbytes=CTL_BYTES)
            self._end_round(r)
            self._round_active = False

    def on_control(self, msg: Message) -> None:
        """Dispatch snap/wave/done/end control messages."""
        kind, r, *rest = msg.payload
        if kind == "pl_snap":
            self._snap(r)
        elif kind == "pl_wave":
            (wave,) = rest
            self._snap(r)  # belt-and-braces if the snap was overtaken
            if self.runtime.depth[self.pid] == wave:
                self._write_state(r)
        elif kind == "pl_done":
            self._on_wave_ack(r)
        elif kind == "pl_end":
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
        self.runtime.storage.write(self.pid, st.log_bytes,
                                   label=f"plank-log:{self.pid}:{r}")
        space = self.runtime.storage.space
        space.retain(self.pid, f"log:{r}", st.log_bytes, self.sim.now)
        if r >= 2:
            space.release(self.pid, f"state:{r - 2}", self.sim.now)
            space.release(self.pid, f"log:{r - 2}", self.sim.now)

    # -- sender-side logging (Vaidya's logical-checkpoint device) ----------------------

    def on_app_sent(self, msg: Message) -> None:
        """Log sends between the logical checkpoint and round end."""
        for st in self.rounds.values():
            if st.logging and not st.complete:
                st.logged_uids.append(msg.uid)
                st.log_bytes += msg.total_bytes

    # -- verification ---------------------------------------------------------------------

    def round_record(self, r: int) -> CheckpointRecord:
        """Verification record incl. the sender-side log for one round."""
        st = self.rounds[r]
        return self.prefix_record(
            seq=r, taken_at=st.taken_at, finalized_at=st.completed_at,
            smark=st.smark, rmark=st.rmark,
            extra_sent=tuple(st.logged_uids),
            state_bytes=self.runtime.state_bytes, log_bytes=st.log_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlankStaggeredHost(P{self.pid}, rounds={sorted(self.rounds)})"
