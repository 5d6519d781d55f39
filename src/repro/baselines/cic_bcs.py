"""Communication-induced (quasi-synchronous) checkpointing — BCS index-based.

The class the paper positions itself *within* and improves upon ([1, 8]
family; this is the classic Briatico-Ciuffoletti-Simoncini index scheme,
the canonical representative).  Rules:

* every process keeps an integer index, piggybacked on each application
  message;
* *basic* checkpoints fire on a local timer and increment the index;
* on receiving a message whose piggybacked index exceeds the local one,
  the process must take a **forced checkpoint before processing the
  message**, adopting the larger index.

Checkpoints with the same index belong to one consistent global checkpoint
(verified here via the standard "first checkpoint with index ≥ k" cut).

Cost profile — the paper's §1 critique, quantified by E6/E7:

* forced checkpoints multiply the checkpoint count well beyond one per
  interval under communication-heavy patterns;
* each forced checkpoint sits on the message's critical path (the
  ``pre_process_delay``), inflating response time by the state-capture
  cost;
* every checkpoint is written at take time, so bursts of forced
  checkpoints also hit the file server together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..des.engine import Simulator
from ..net.message import Message
from .base import BaselineHost, BaselineRuntime

INDEX_BYTES = 4


@dataclass(frozen=True)
class CicCheckpoint:
    """One checkpoint (basic or forced) at one process."""

    index: int
    taken_at: float
    smark: int
    rmark: int
    forced: bool


class CicRuntime(BaselineRuntime):
    """Run context for BCS communication-induced checkpointing."""

    def __init__(self, sim: Simulator, network, storage, *,
                 interval: float = 50.0, state_bytes: int = 1_000_000,
                 capture_time: float = 0.1,
                 horizon: float | None = None) -> None:
        super().__init__(sim, network, storage, horizon=horizon)
        self.interval = interval
        self.state_bytes = state_bytes
        self.capture_time = capture_time

    def build(self, apps: dict[int, Any] | None = None):
        return super().build(
            lambda pid, sim, rt, app: CicHost(
                pid, sim, rt, app, capture_time=self.capture_time), apps)

    # -- metrics ---------------------------------------------------------------

    def forced_checkpoints(self) -> int:
        """Communication-induced (forced) checkpoints across all hosts."""
        return sum(sum(1 for c in h.checkpoints if c.forced)
                   for h in self.hosts.values())

    def basic_checkpoints(self) -> int:
        """Timer-driven (scheduled) checkpoints across all hosts."""
        return sum(sum(1 for c in h.checkpoints if not c.forced)
                   for h in self.hosts.values())


class CicHost(BaselineHost):
    """One process of the BCS index-based protocol."""

    def __init__(self, pid: int, sim: Simulator, runtime: CicRuntime,
                 app: Any = None, capture_time: float = 0.1) -> None:
        super().__init__(pid, sim, runtime, app, capture_time=capture_time)
        self.index = 0
        self.checkpoints: list[CicCheckpoint] = []

    # -- basic checkpoints (local timer) -------------------------------------------

    def protocol_start(self) -> None:
        self._arm_basic()

    def _arm_basic(self) -> None:
        # Jitter the phase so basic checkpoints are not artificially aligned
        # (the protocol is uncoordinated by design).
        rng = self.sim.rng.stream(f"cic.{self.pid}")
        delay = self.runtime.interval * float(rng.uniform(0.8, 1.2))
        horizon = self.runtime.horizon
        if horizon is not None and self.sim.now + delay > horizon:
            return
        self.set_timeout(delay, self._basic_checkpoint)

    def _basic_checkpoint(self) -> None:
        self.index += 1
        self._take(forced=False)
        self._arm_basic()

    # -- forced checkpoints (the CIC rule) ---------------------------------------------

    def pre_process_delay(self, msg: Message) -> float:
        """Apply the BCS rule *before* the application sees the message.

        Taking the forced checkpoint here (rather than in a post-hook) is
        load-bearing: the checkpoint's cut position must exclude this
        message's receive, and the application's processing is delayed by
        the capture time — the response-time penalty E7 measures.
        """
        m_index = msg.meta.get("cic_index", 0)
        if m_index > self.index:
            self.index = m_index
            self._take(forced=True)
            return self.capture_time
        return 0.0

    def _take(self, forced: bool) -> None:
        smark, rmark = self.marks()
        ck = CicCheckpoint(index=self.index, taken_at=self.sim.now,
                           smark=smark, rmark=rmark, forced=forced)
        self.checkpoints.append(ck)
        self.trace("ckpt.tentative", csn=self.index,
                   bytes=self.state_bytes, forced=forced)
        self.take_checkpoint_write(self.state_bytes,
                                   label=f"cic:{self.pid}:{self.index}")
        # CIC has no local knowledge of the globally-minimal index, so no
        # checkpoint can be garbage-collected without an extra coordination
        # protocol — every checkpoint is retained (E13's footprint gap).
        self.runtime.storage.space.retain(
            self.pid, f"ckpt:{len(self.checkpoints)}",
            self.state_bytes, self.sim.now)

    # -- piggyback -------------------------------------------------------------------------

    def decorate_app_meta(self) -> dict[str, Any]:
        return {"cic_index": self.index}

    def piggyback_bytes(self) -> int:
        return INDEX_BYTES

    def on_control(self, msg: Message) -> None:  # pragma: no cover - none sent
        raise ValueError("CIC sends no control messages")

    # -- verification ------------------------------------------------------------------------

    def cut_positions(self):
        """The standard BCS recovery lines: cut k is the first checkpoint
        with index >= k, for every k up to this process's index."""
        k = 1
        for ck in self.checkpoints:
            while k <= ck.index:
                yield (k, ck.taken_at, ck.taken_at, ck.smark, ck.rmark,
                       (), (), 0)
                k += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        forced = sum(1 for c in self.checkpoints if c.forced)
        return (f"CicHost(P{self.pid}, index={self.index}, "
                f"ckpts={len(self.checkpoints)} ({forced} forced))")
