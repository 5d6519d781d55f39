"""Configuration for the optimistic-checkpointing protocol host.

Separates three concerns the paper keeps distinct:

* *when* checkpoints are initiated (``checkpoint_interval`` + phasing —
  the paper's "regularly scheduled basic checkpoints");
* *how* the protocol converges (``timeout`` + the nested
  :class:`~repro.core.state_machine.MachineConfig` switches);
* *when* the tentative state is flushed to stable storage — the
  :class:`FlushPolicy` hierarchy, which is the heart of the paper's
  contention-avoidance claim ("processes are able to choose their
  convenient time for writing the tentative checkpoints ... to stable
  storage").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from .state_machine import MachineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .host import OptimisticProcess
    from .types import TentativeCheckpoint


class FlushPolicy:
    """Decides when ``CT_{i,k}`` moves from local memory to stable storage.

    The contract: ``on_tentative`` is called right after the tentative
    checkpoint is captured; the policy may flush immediately, schedule a
    flush, or do nothing (finalization always flushes whatever remains —
    the paper guarantees the flush happens *no later than* ``CFE``).
    ``host.flush_tentative(ckpt)`` is idempotent, so racing a scheduled
    flush against finalization is harmless.
    """

    name = "abstract"

    def on_tentative(self, host: "OptimisticProcess",
                     ckpt: "TentativeCheckpoint") -> None:
        """Policy hook: decide when (if ever before CFE) to flush ``ckpt``."""
        raise NotImplementedError


class FlushAtFinalize(FlushPolicy):
    """Maximum optimism: hold state locally until finalization."""

    name = "at-finalize"

    def on_tentative(self, host: "OptimisticProcess",
                     ckpt: "TentativeCheckpoint") -> None:
        pass  # finalization flushes


class FlushImmediately(FlushPolicy):
    """Flush at capture time — mimics synchronous protocols' write timing.

    Used as an ablation: with every process initiating on the same phase,
    this re-creates exactly the storage-contention spike the paper argues
    against, isolating the value of deferred flushing.
    """

    name = "immediate"

    def on_tentative(self, host: "OptimisticProcess",
                     ckpt: "TentativeCheckpoint") -> None:
        host.flush_tentative(ckpt)


@dataclass
class FlushUniformDelay(FlushPolicy):
    """Flush at a uniformly random point within ``max_delay`` of capture.

    The simplest "convenient time" realization: writes from different
    processes de-correlate in time even when captures align.
    """

    max_delay: float = 5.0
    name = "uniform-delay"

    def on_tentative(self, host: "OptimisticProcess",
                     ckpt: "TentativeCheckpoint") -> None:
        rng = host.sim.rng.stream(f"flush.{host.pid}")
        delay = float(rng.uniform(0.0, self.max_delay))
        # host.set_timeout (not sim.schedule) so a crash or rollback of the
        # host cancels the pending flush with it.
        host.set_timeout(delay, lambda: host.flush_tentative(ckpt))


@dataclass
class FlushOpportunistic(FlushPolicy):
    """Flush when the file server looks idle (paper §1: save "if there is
    no contention for stable storage while saving").

    Polls the server's outstanding-request count every ``poll_interval``;
    flushes once it is ≤ ``idle_threshold`` or after ``max_wait`` (whichever
    first).  This models a client observing NFS queue depth, a realistic
    stand-in for the paper's informal "at their own convenience".
    """

    poll_interval: float = 0.5
    idle_threshold: int = 0
    max_wait: float = 30.0
    name = "opportunistic"

    def on_tentative(self, host: "OptimisticProcess",
                     ckpt: "TentativeCheckpoint") -> None:
        deadline = host.sim.now + self.max_wait
        # First look is de-phased per process so captures that align do not
        # all poll (and then write) at the same instant.
        rng = host.sim.rng.stream(f"flush.{host.pid}")
        first = float(rng.uniform(0.0, self.poll_interval))
        # host.set_timeout so crash/rollback kills the poll chain too.
        host.set_timeout(first, partial(self._poll, host, ckpt, deadline))

    def _poll(self, host: "OptimisticProcess", ckpt: "TentativeCheckpoint",
              deadline: float) -> None:
        # Each look re-arms a fresh partial: a closure that re-armed itself
        # would be a reference cycle, left behind whenever a crash or
        # rollback stops the chain.
        if ckpt.flushed:
            return
        idle = host.runtime.storage.outstanding() <= self.idle_threshold
        if idle or host.sim.now >= deadline:
            host.flush_tentative(ckpt)
        else:
            host.set_timeout(self.poll_interval,
                             partial(self._poll, host, ckpt, deadline))


@dataclass
class OptimisticConfig:
    """Full configuration for a run of the paper's protocol."""

    #: Period of scheduled ("basic") checkpoint initiations; ``None`` means
    #: no periodic initiation (scenarios drive initiation manually).
    checkpoint_interval: float | None = 50.0
    #: Phase of each process's first initiation: "aligned" (all at one
    #: instant — worst case for contention), "staggered" (evenly spread
    #: over one interval) or "jittered" (uniform random within an interval).
    initiation_phase: str = "jittered"
    #: Restart the initiation schedule whenever a tentative checkpoint is
    #: taken for *any* reason (own initiation or joining a peer's round).
    #: This realizes the paper's §1 guarantee — "no process takes more than
    #: one checkpoint in any time interval of t seconds" — because a joined
    #: round satisfies the scheduled-checkpoint requirement.  With ``False``
    #: every process initiates on its own fixed phase regardless, and
    #: staggered initiators cascade into roughly one global round per
    #: initiator per interval.
    reset_schedule_on_checkpoint: bool = True
    #: Convergence timer (§3.5.1) — time a tentative checkpoint may remain
    #: unfinalized before control messages are triggered.
    timeout: float = 20.0
    #: Bytes of process state captured by a tentative checkpoint; callable
    #: receives the pid (lets experiments model heterogeneous processes).
    state_bytes: int | Callable[[int], int] = 1_000_000
    #: When tentative state is flushed (see :class:`FlushPolicy`).
    flush_policy: FlushPolicy = field(default_factory=FlushAtFinalize)
    #: State-machine switches (control plane + optimizations).
    machine: MachineConfig = field(default_factory=MachineConfig)
    #: Ablation: log every message from the moment a checkpoint interval
    #: starts rather than only during the tentative window.  Inflates log
    #: bytes; used by E12 to quantify the value of *selective* logging.
    log_all_messages: bool = False
    #: Incremental checkpointing (production extension, not in the paper):
    #: every k-th checkpoint captures the full state; the others capture a
    #: delta of ``delta_fraction`` of it.  Cuts write volume dramatically,
    #: but recovery needs the delta *chain* back to the last full capture,
    #: so garbage collection keeps that chain alive (chain-aware GC).
    #: ``None`` = every checkpoint is full (the paper's model).
    incremental_every: int | None = None
    #: Fraction of the state a delta checkpoint writes.
    delta_fraction: float = 0.1
    #: Raise on protocol anomalies (messages the paper proves impossible).
    #: Failure-injection experiments set this False and count them instead.
    strict: bool = True

    def state_bytes_for(self, pid: int) -> int:
        """Resolve the (possibly per-pid) checkpoint state size."""
        if callable(self.state_bytes):
            return int(self.state_bytes(pid))
        return int(self.state_bytes)

    def is_full_checkpoint(self, csn: int) -> bool:
        """Whether checkpoint ``csn`` captures the full state.

        With ``incremental_every = k``: csns 1, k+1, 2k+1, ... are full.
        """
        if self.incremental_every is None:
            return True
        return (csn - 1) % self.incremental_every == 0

    def capture_bytes_for(self, pid: int, csn: int) -> int:
        """Bytes the tentative checkpoint ``csn`` actually captures."""
        full = self.state_bytes_for(pid)
        if self.is_full_checkpoint(csn):
            return full
        return int(full * self.delta_fraction)

    def validate(self, n: int) -> None:
        """Fail fast on nonsensical settings."""
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive or None")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.initiation_phase not in ("aligned", "staggered", "jittered"):
            raise ValueError(
                f"unknown initiation_phase {self.initiation_phase!r}")
        if self.incremental_every is not None and self.incremental_every < 1:
            raise ValueError("incremental_every must be >= 1 or None")
        if not (0.0 < self.delta_fraction <= 1.0):
            raise ValueError(
                f"delta_fraction must be in (0, 1], got {self.delta_fraction}")
        for pid in range(n):
            if self.state_bytes_for(pid) < 0:
                raise ValueError(f"negative state_bytes for pid {pid}")
