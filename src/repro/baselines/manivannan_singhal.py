"""Manivannan-Singhal quasi-synchronous checkpointing [8].

The authors' own earlier algorithm ("Asynchronous recovery without using
vector timestamps", JPDC 2002) and the immediate ancestor of the paper
under reproduction.  Like BCS it is index-based and forces checkpoints
before processing, but its sequence numbers are tied to the *checkpoint
schedule* rather than free-running:

* every process is due a basic checkpoint at times ``k·interval`` (modulo
  local clock skew); the k-th scheduled checkpoint carries sequence number
  ``k``;
* on receiving a message with ``m.sn >`` the local latest sequence number,
  the process takes a **forced checkpoint with sn = m.sn before
  processing** the message;
* at a scheduled instant ``k``, the basic checkpoint is **skipped** if the
  process already holds a checkpoint with ``sn >= k`` (a forced checkpoint
  substituted for it) — the feature that keeps MS's checkpoint count far
  below BCS's under heavy traffic.

Checkpoints with equal sequence number belong to one consistent global
checkpoint (verified via the same first-checkpoint-with-sn≥k cuts as CIC).

Cost profile vs the optimistic protocol: no blocking and ≈ one checkpoint
per interval, but (a) forced checkpoints still sit on the message critical
path (response-time penalty, E7's family) and (b) every checkpoint is
written at take time, so near-simultaneous index propagation still clusters
writes at the file server (E3's family).  These are exactly the two costs
§1 says the optimistic scheme removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

SN_BYTES = 4


@dataclass(frozen=True)
class MsCheckpoint:
    """One checkpoint (basic or forced) at one process."""

    sn: int
    taken_at: float
    smark: int
    rmark: int
    forced: bool


class ManivannanSinghalRuntime(BaselineRuntime):
    """Run context for MS quasi-synchronous checkpointing."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 capture_time: float = 0.1, clock_skew: float = 0.05,
                 horizon: float | None = None) -> None:
        if not (0.0 <= clock_skew < 0.5):
            raise ValueError(f"clock_skew must be in [0, 0.5), got {clock_skew}")
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.capture_time = capture_time
        #: Fractional skew of each process's checkpoint schedule (uniform
        #: in ±skew·interval), modelling loosely synchronized clocks.
        self.clock_skew = clock_skew

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: ManivannanSinghalHost(
                pid, sim, rt, app, capture_time=self.capture_time), apps)

    # -- metrics ----------------------------------------------------------------

    def forced_checkpoints(self) -> int:
        """Communication-induced checkpoints across all hosts."""
        return sum(sum(1 for c in h.checkpoints if c.forced)
                   for h in self.hosts.values())

    def skipped_basics(self) -> int:
        """Scheduled checkpoints skipped because a forced one substituted."""
        return sum(h.skipped_basics for h in self.hosts.values())


class ManivannanSinghalHost(BaselineHost):
    """One process of the MS quasi-synchronous protocol."""

    def __init__(self, pid: int, sim: Simulator,
                 runtime: ManivannanSinghalRuntime, app: Any = None,
                 capture_time: float = 0.1) -> None:
        super().__init__(pid, sim, runtime, app, capture_time=capture_time)
        self.sn = 0
        self.checkpoints: list[MsCheckpoint] = []
        self.skipped_basics = 0
        self._next_slot = 1

    # -- scheduled basics ----------------------------------------------------------

    def protocol_start(self) -> None:
        self._arm_next_slot()

    def _slot_time(self, k: int) -> float:
        rng = self.sim.rng.stream(f"ms.{self.pid}")
        skew = float(rng.uniform(-self.runtime.clock_skew,
                                 self.runtime.clock_skew))
        return (k + skew) * self.runtime.interval

    def _arm_next_slot(self) -> None:
        t = self._slot_time(self._next_slot)
        horizon = self.runtime.horizon
        if horizon is not None and t > horizon:
            return
        self.set_timeout(max(t - self.sim.now, 0.0), self._basic_checkpoint)

    def _basic_checkpoint(self) -> None:
        k = self._next_slot
        self._next_slot += 1
        if self.sn < k:
            # The k-th scheduled checkpoint is still due.
            self.sn = k
            self._take(forced=False)
        else:
            # A forced checkpoint already substituted for this slot — the
            # MS saving that BCS lacks.
            self.skipped_basics += 1
            self.trace("ckpt.skip", sn=self.sn, slot=k)
        self._arm_next_slot()

    # -- the forced rule ----------------------------------------------------------------

    def pre_process_delay(self, msg: Message) -> float:
        m_sn = msg.meta.get("ms_sn", 0)
        if m_sn > self.sn:
            self.sn = m_sn
            self._take(forced=True)
            return self.capture_time
        return 0.0

    def _take(self, forced: bool) -> None:
        smark, rmark = self.marks()
        ck = MsCheckpoint(sn=self.sn, taken_at=self.sim.now, smark=smark,
                          rmark=rmark, forced=forced)
        self.checkpoints.append(ck)
        self.trace("ckpt.tentative", csn=self.sn,
                   bytes=self.state_bytes, forced=forced)
        self.take_checkpoint_write(self.state_bytes,
                                   label=f"ms:{self.pid}:{self.sn}")
        # Like BCS, garbage collection of old checkpoints needs a global
        # protocol MS does not run here; everything is retained.
        self.runtime.storage.space.retain(
            self.pid, f"ckpt:{len(self.checkpoints)}",
            self.state_bytes, self.sim.now)

    # -- piggyback ---------------------------------------------------------------------------

    def decorate_app_meta(self) -> dict[str, Any]:
        return {"ms_sn": self.sn}

    def piggyback_bytes(self) -> int:
        return SN_BYTES

    def on_control(self, msg: Message) -> None:  # pragma: no cover
        raise ValueError("MS quasi-synchronous sends no control messages")

    # -- verification -----------------------------------------------------------------------------

    def cut_positions(self):
        """The MS recovery lines: cut k is the first checkpoint with
        sn >= k, for every k up to this process's sn."""
        k = 1
        for ck in self.checkpoints:
            while k <= ck.sn:
                yield (k, ck.taken_at, ck.taken_at, ck.smark, ck.rmark,
                       (), (), 0)
                k += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        forced = sum(1 for c in self.checkpoints if c.forced)
        return (f"ManivannanSinghalHost(P{self.pid}, sn={self.sn}, "
                f"ckpts={len(self.checkpoints)} ({forced} forced, "
                f"{self.skipped_basics} skipped))")
