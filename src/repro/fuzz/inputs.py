"""The fuzzer's input domain: (fault plan, workload schedule, config).

A :class:`FuzzInput` is everything needed to reproduce one run: the
:class:`~repro.chaos.plan.FaultPlan`, a :class:`WorkloadSchedule`
(which generator drives the application layer and how hard), and the
small-config geometry (n, horizon, checkpoint interval, timeout, seed).
``as_dict``/``from_dict`` round-trip through JSON so corpus entries and
shrunk counterexamples are plain files.

``validate`` enforces the *fairness envelope* on top of the plan
validator.  The oracle treats non-quiescence as a Theorem 1 violation,
so every input must stay inside the fault model the paper's proofs
assume — anything outside it would indict the injector, not the
protocol:

* every fault window is finite and ends a post-fault margin (one
  initiation interval plus four convergence timeouts) before the
  horizon, so at least one round runs fault-free (mirrors the chaos
  matrix's post-fault-rounds bar);
* ``drop`` faults target application frames only.  The paper assumes
  reliable control channels (§3.5.1's CK_BGN/CK_REQ/CK_END waves are
  sent at most once per round); losing a control message forever is
  exactly the ``drop-ck-req`` *protocol mutation* the fuzzer exists to
  catch, not a legal environment.  Delay/reorder/duplicate may touch
  control frames — they never lose messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..chaos.des import CRASH_RECOVERY_DELAY
from ..chaos.plan import ChaosError, Fault, FaultPlan

#: Config bounds (inclusive) — the fuzzable geometry envelope.
N_RANGE = (2, 6)
HORIZON_RANGE = (40.0, 240.0)
INTERVAL_MIN = 5.0
TIMEOUT_MIN = 2.0
RATE_RANGE = (0.05, 4.0)
MSG_SIZE_RANGE = (16, 4096)
MAX_FAULTS = 8
MAX_DELAY = 10.0
P_MIN = 0.05

WORKLOADS = ("uniform", "half_silent", "bursty", "ring",
             "client_server", "pipeline")
TOPOLOGIES = ("complete", "ring", "star", "line")


@dataclass(frozen=True)
class WorkloadSchedule:
    """Which application workload drives the run, and how hard."""

    workload: str = "uniform"
    rate: float = 1.0
    msg_size: int = 512
    topology: str = "complete"

    def validate(self) -> None:
        """Raise :class:`ChaosError` unless the schedule is in-domain."""
        if self.workload not in WORKLOADS:
            raise ChaosError(f"unknown workload {self.workload!r}")
        if self.topology not in TOPOLOGIES:
            raise ChaosError(f"unknown topology {self.topology!r}")
        if not (RATE_RANGE[0] <= self.rate <= RATE_RANGE[1]):
            raise ChaosError(f"rate {self.rate} outside {RATE_RANGE}")
        if not (MSG_SIZE_RANGE[0] <= self.msg_size <= MSG_SIZE_RANGE[1]):
            raise ChaosError(
                f"msg_size {self.msg_size} outside {MSG_SIZE_RANGE}")

    def workload_kwargs(self) -> dict[str, Any]:
        """Generator kwargs for :func:`repro.workload.generators.make`."""
        if self.workload in ("uniform", "half_silent", "bursty"):
            return {"rate": self.rate, "msg_size": self.msg_size}
        if self.workload == "client_server":
            return {"rate": self.rate}
        if self.workload == "ring":
            return {"period": max(0.25, 1.0 / self.rate),
                    "msg_size": self.msg_size}
        # pipeline
        return {"source_period": max(0.5, 2.0 / self.rate),
                "msg_size": self.msg_size}

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"workload": self.workload, "rate": self.rate,
                "msg_size": self.msg_size, "topology": self.topology}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "WorkloadSchedule":
        return cls(workload=str(d.get("workload", "uniform")),
                   rate=float(d.get("rate", 1.0)),
                   msg_size=int(d.get("msg_size", 512)),
                   topology=str(d.get("topology", "complete")))


@dataclass(frozen=True)
class FuzzInput:
    """One fully reproducible fuzz run: plan + schedule + geometry."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    schedule: WorkloadSchedule = field(default_factory=WorkloadSchedule)
    n: int = 4
    seed: int = 0
    horizon: float = 120.0
    interval: float = 30.0
    timeout: float = 10.0

    # -- the fairness envelope ---------------------------------------------

    def fault_budget_end(self) -> float:
        """Latest simulated time any fault effect may still be felt.

        Leaves one initiation interval plus four convergence timeouts of
        fault-free tail, so Theorem 1's post-fault round has room to run
        before the horizon stops new initiations.
        """
        return self.horizon - (self.interval + 4.0 * self.timeout)

    def validate(self) -> None:
        """Raise :class:`ChaosError` unless the input is in-domain."""
        self.plan.validate()
        self.schedule.validate()
        if not (N_RANGE[0] <= self.n <= N_RANGE[1]):
            raise ChaosError(f"n {self.n} outside {N_RANGE}")
        if not (HORIZON_RANGE[0] <= self.horizon <= HORIZON_RANGE[1]):
            raise ChaosError(f"horizon {self.horizon} outside"
                             f" {HORIZON_RANGE}")
        if not (INTERVAL_MIN <= self.interval <= self.horizon / 4.0):
            raise ChaosError(f"interval {self.interval} outside"
                             f" [{INTERVAL_MIN}, horizon/4]")
        if not (TIMEOUT_MIN <= self.timeout <= self.interval):
            raise ChaosError(f"timeout {self.timeout} outside"
                             f" [{TIMEOUT_MIN}, interval]")
        faults = self.plan.faults
        if len(faults) > MAX_FAULTS:
            raise ChaosError(f"{len(faults)} faults > {MAX_FAULTS}")
        budget = self.fault_budget_end()
        crashes = [f for f in faults if f.kind == "crash"]
        if len(crashes) > 1:
            raise ChaosError("at most one crash fault per plan")
        for f in faults:
            self._check_fault(f, budget)

    def _check_fault(self, f: Fault, budget: float) -> None:
        if f.kind == "crash":
            at = f.at or 0.0
            if f.pid is None or not (0 <= f.pid < self.n):
                raise ChaosError(f"crash pid {f.pid} outside 0..{self.n - 1}")
            if at + CRASH_RECOVERY_DELAY > budget:
                raise ChaosError(f"crash at {at} recovers past fault"
                                 f" budget {budget}")
            return
        if f.end is None:
            raise ChaosError(f"{f.kind} fault needs a finite end window")
        effective_end = f.end + (f.delay if f.kind in ("delay",) else 0.0)
        if effective_end > budget:
            raise ChaosError(f"{f.kind} fault ends at {effective_end} past"
                             f" fault budget {budget}")
        if f.kind == "drop" and tuple(f.frames) != ("app",):
            raise ChaosError("drop faults are app-frame only (control"
                             " channels are reliable in the paper's model)")
        if f.p < P_MIN:
            raise ChaosError(f"fault p {f.p} below {P_MIN}")
        if f.kind in ("delay", "slow-flush") and f.delay > MAX_DELAY:
            raise ChaosError(f"delay {f.delay} above {MAX_DELAY}")
        if f.kind == "partition":
            pids = set(f.group_a) | set(f.group_b)
            if not pids <= set(range(self.n)):
                raise ChaosError(f"partition pids {sorted(pids)} outside"
                                 f" 0..{self.n - 1}")

    # -- derived run parameters --------------------------------------------

    def max_events(self) -> int:
        """DES event cap: generous for legal traffic, tight for livelock.

        A clean run at this geometry stays well under the cap (measured
        ~6x headroom at the densest corner); a protocol deadlock keeps
        escalation timers firing forever and hits it in well under a
        second of wall clock, which is how the oracle detects Theorem 1
        liveness violations without unbounded runs.
        """
        traffic = self.schedule.rate * self.n * self.horizon
        return 20_000 + int(150 * traffic)

    def size(self) -> int:
        """Shrink metric: fault count + config weight (smaller is simpler)."""
        return (len(self.plan.faults) * 10 + self.n
                + int(self.horizon / 10.0)
                + int(self.schedule.rate * 4))

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"plan": self.plan.as_dict(),
                "schedule": self.schedule.as_dict(),
                "n": self.n, "seed": self.seed, "horizon": self.horizon,
                "interval": self.interval, "timeout": self.timeout}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FuzzInput":
        return cls(plan=FaultPlan.from_dict(d.get("plan", {})),
                   schedule=WorkloadSchedule.from_dict(
                       d.get("schedule", {})),
                   n=int(d.get("n", 4)), seed=int(d.get("seed", 0)),
                   horizon=float(d.get("horizon", 120.0)),
                   interval=float(d.get("interval", 30.0)),
                   timeout=float(d.get("timeout", 10.0)))

    def derive(self, **changes: Any) -> "FuzzInput":
        """A copy with ``changes`` applied (dataclass ``replace``)."""
        return replace(self, **changes)


def seed_inputs() -> list[FuzzInput]:
    """The initial corpus: one benign input per interesting regime.

    Windows mirror the chaos matrix's defaults, clamped into the default
    geometry's fault budget (120 − (30 + 40) = 50).
    """
    def wire(kind: str, **kw: Any) -> FaultPlan:
        return FaultPlan(faults=(Fault(kind=kind, **kw),))

    base = FuzzInput()
    out = [
        base,  # fault-free baseline: pure protocol coverage
        base.derive(plan=wire("drop", p=0.2, start=10.0, end=45.0,
                              frames=("app",))),
        base.derive(plan=wire("duplicate", p=0.25, start=10.0, end=45.0)),
        base.derive(plan=wire("reorder", p=0.3, start=10.0, end=45.0)),
        base.derive(plan=wire("delay", p=0.25, start=10.0, end=40.0,
                              delay=3.0)),
        base.derive(plan=FaultPlan(faults=(
            Fault(kind="partition", start=20.0, end=40.0,
                  group_a=(0, 1), group_b=(2, 3)),))),
        base.derive(plan=FaultPlan(faults=(
            Fault(kind="crash", pid=3, at=40.0),))),
        base.derive(plan=wire("torn-write", p=0.5, start=5.0, end=45.0)),
        base.derive(
            schedule=WorkloadSchedule(workload="half_silent", rate=1.0)),
        base.derive(
            schedule=WorkloadSchedule(workload="ring", rate=1.0),
            plan=wire("drop", p=0.3, start=10.0, end=45.0,
                      frames=("app",))),
    ]
    for inp in out:
        inp.validate()
    return out
