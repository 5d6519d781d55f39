"""Live rollback recovery for the optimistic protocol.

Executes the paper's recovery story *inside* the simulation instead of
analyzing it post-hoc: when a process fails, the system rolls back to the
most recent fully-finalized global checkpoint ``S_k`` and resumes —

1. the failure is a fail-stop crash (via the
   :class:`~repro.recovery.failure.FailureInjector` mechanics);
2. after ``recovery_delay`` (detection + restart time), every process —
   including the restarted one — invokes
   :meth:`~repro.core.host.OptimisticProcess.rollback_to` with the largest
   ``k`` such that every ``C_{i,k}`` was finalized (durable) before the
   crash;
3. all channels are flushed (in-flight messages belong to the discarded
   execution);
4. processes resume: scheduled checkpointing re-arms and applications
   restart from the recovered state, re-executing the lost work.

Post-recovery rounds continue from sequence number ``k+1`` and must again
form consistent global checkpoints — the regression the tests pin.

Simplification vs a real deployment: recovery is executed atomically at one
simulated instant across all processes (a real system would run a recovery
protocol taking a round-trip or two).  Since no application work happens
during recovery in either case, this only shifts the timeline, not the
protocol behaviour under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.host import OptimisticRuntime
from .failure import FailureInjector


@dataclass
class RecoveryEvent:
    """Record of one executed crash-and-recover cycle."""

    failed_pid: int
    crash_time: float
    recovery_time: float
    recovered_seq: int
    dropped_messages: int


class RecoveryManager:
    """Crash a process and execute system-wide rollback recovery."""

    def __init__(self, runtime: OptimisticRuntime) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.injector = FailureInjector(self.sim, runtime.network)
        self.events: list[RecoveryEvent] = []

    def crash_and_recover(self, pid: int, at: float,
                          recovery_delay: float = 5.0,
                          restart_app: bool = True) -> None:
        """Schedule a crash of ``pid`` at ``at`` and recovery afterwards."""
        if recovery_delay <= 0:
            raise ValueError("recovery_delay must be positive")
        self.injector.crash(pid, at)
        self.sim.schedule_at(at + recovery_delay,
                             lambda: self._recover(pid, at, restart_app))

    # -- internals ---------------------------------------------------------------

    def _durable_seq(self) -> int:
        """Largest k with every C_{i,k} finalized by now (k=0 always works)."""
        best = 0
        for seq in self.runtime.finalized_seqs():
            records = [self.runtime.hosts[pid].finalized.get(seq)
                       for pid in self.runtime.hosts]
            if all(fc is not None and fc.finalized_at <= self.sim.now
                   for fc in records):
                best = seq
        return best

    def _recover(self, pid: int, crash_time: float,
                 restart_app: bool) -> None:
        seq = self._durable_seq()
        dropped = self.runtime.network.drop_in_flight()
        # Roll every process back; this also un-halts the crashed one, so
        # the network delivers to it again.
        for host in self.runtime.hosts.values():
            host.rollback_to(seq, restart_app=restart_app)
        self.sim.trace.record(self.sim.now, "recovery.complete", pid,
                              seq=seq, dropped=dropped)
        self.events.append(RecoveryEvent(
            failed_pid=pid, crash_time=crash_time,
            recovery_time=self.sim.now, recovered_seq=seq,
            dropped_messages=dropped))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoveryManager(events={len(self.events)})"
