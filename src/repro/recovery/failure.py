"""Failure injection.

Crashes a process at a chosen simulated time: from that instant the process
is halted, so it neither receives deliveries (the network refuses them as
``crashed`` drops), nor fires its timers, nor (consequently) sends
anything new.  Messages it sent *before* the crash remain in flight and are
delivered normally (fail-stop model with asynchronous channels).

Most recovery experiments analyse a failure *post-hoc* (run failure-free,
then ask "what would a crash at time t cost?" via :mod:`.rollback`), which
keeps one simulated run reusable for many hypothetical failure times.  The
injector exists for the cases where the failure's effect on the *live*
protocol matters — e.g. checking that surviving processes' checkpoint
rounds stall rather than corrupt state, and that already-finalized global
checkpoints stay consistent (strictness is relaxed because a crash breaks
the theorems' failure-free assumptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..des.engine import Simulator
from ..net.network import Network


@dataclass
class CrashPlan:
    """One scheduled crash."""

    pid: int
    at: float
    executed: bool = False


class FailureInjector:
    """Schedules fail-stop crashes: a crash halts the process."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.plans: list[CrashPlan] = []

    def crash(self, pid: int, at: float) -> CrashPlan:
        """Schedule a fail-stop crash of ``pid`` at simulated time ``at``."""
        if pid not in self.network.processes:
            raise ValueError(f"unknown process {pid}")
        plan = CrashPlan(pid=pid, at=at)
        self.plans.append(plan)
        self.sim.schedule_at(at, lambda: self._execute(plan))
        return plan

    def _execute(self, plan: CrashPlan) -> None:
        plan.executed = True
        proc = self.network.processes[plan.pid]
        proc.halted = True
        self.sim.trace.record(self.sim.now, "failure.crash", plan.pid)

    @property
    def crashed(self) -> set[int]:
        """Pids of processes halted now (a rollback restarts them)."""
        return {pid for pid, proc in self.network.processes.items()
                if proc.halted}

    def alive(self) -> list[int]:
        """Pids of processes that are not halted."""
        return [pid for pid in sorted(self.network.processes)
                if not self.network.processes[pid].halted]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureInjector(crashed={sorted(self.crashed)})"
