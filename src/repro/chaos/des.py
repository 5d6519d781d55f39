"""DES fault injection and the one judge of a faulted DES run.

:class:`DesChaosInjector` chains onto ``Network.delivery_gate`` (the same
idiom the failure and partition injectors use), draws every fault decision
from a named ``sim.rng`` stream (``chaos.<kind>.<index>``), and therefore
replays byte-identically for the same seed + plan.  Partition faults
delegate to the existing :class:`~repro.recovery.partition.PartitionInjector`
(park + redeliver at heal); crash faults are composed by :func:`run_plan`
through :class:`~repro.recovery.restart.RecoveryManager`; storage faults
wrap ``StableStorage.write``.

:func:`run_plan` is the judge every faulted DES run goes through — the
chaos matrix cell (:func:`run_des_cell`), the fuzz oracle
(:func:`repro.fuzz.oracle.run_input`) and ``repro chaos --plan``.  It
installs the injector before the first event, runs to quiescence, and
returns the outcome record; the run *violates* iff its ``violations``
list is non-empty.  Its checks are the property library's
(:mod:`repro.causality.properties`, which the model checker and the live
replay run too) over the run's end state, each filed under its
property's kind: ``anomaly``, ``sequence``, ``knowledge``, ``orphans``
(Theorem 2), ``round-prefix`` and, at quiescence, ``stuck-status`` and
``divergence`` (Theorem 1 convergence).  Two checks belong to the run:

* **liveness** (Theorem 1) — the run hit its event budget: a stuck round
  re-arms its escalation timers forever, so truncation is the detection;
* **recovery-incomplete** — a planned crash never completed its
  crash/rollback/restart cycle.

``recovered`` rides alongside: faults were injected, the run quiesced,
and some round finalized everywhere strictly after the last fault ended
(Theorem 1 convergence, demonstrated post-fault).

``PROTOCOL_MUTATIONS`` are deliberate protocol breaks the judge must
catch: ``drop-ck-req`` discards every CK_REQ, so the §3.5.1 wave never
tours (a Theorem 1 liveness bug the clean protocol must not show).
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Any, Callable

from ..causality.consistency import ConsistencyVerifier
from ..causality.properties import (
    STATE_CHECKS,
    TERMINAL_CHECKS,
    Snapshot,
    violations as property_violations,
)
from ..core.types import ControlType
from ..harness.experiment import ExperimentConfig
from ..harness.runner import run_experiment
from ..net.message import Message
from ..net.network import Network
from ..recovery.partition import PartitionInjector
from ..recovery.restart import RecoveryManager
from .plan import ChaosError, FaultPlan, single_fault_plan

#: Spacing for duplicate/reorder/delay redeliveries (mirrors the partition
#: injector's heal spacing: deterministic order, no zero-duration bursts).
REDELIVERY_SPACING = 1e-6

#: Crash cells: detection + restart time before system-wide rollback.
CRASH_RECOVERY_DELAY = 5.0


class DesChaosInjector:
    """Interpose a :class:`FaultPlan` on a simulated network."""

    def __init__(self, sim: Any, network: Network, plan: FaultPlan) -> None:
        plan.validate()
        self.sim = sim
        self.network = network
        self.plan = plan
        #: fault-kind -> number of injections actually performed.
        self.injected: dict[str, int] = {}
        self._wire = plan.wire_faults()
        self._rngs = {i: sim.rng.stream(f"chaos.{f.kind}.{i}")
                      for i, f in self._wire + plan.storage_faults()}
        #: (src, dst) -> held message, per reorder fault index.
        self._reorder_held: dict[int, dict[tuple[int, int], Message]] = {
            i: {} for i, f in self._wire if f.kind == "reorder"}
        # Partitions ride on the proven injector (park + redeliver at heal).
        self._partitions: PartitionInjector | None = None
        if plan.partition_faults():
            self._partitions = PartitionInjector(sim, network)
            for _, f in plan.partition_faults():
                self._partitions.partition(f.group_a, f.group_b,
                                           f.start, f.end)
        # Wire gate chains last so it runs first (innermost faults win).
        self._prev_gate = network.delivery_gate
        if self._wire:
            network.delivery_gate = self._gate
            for i, f in self._wire:
                if f.kind == "reorder":
                    # Window close flushes any message still held for the
                    # swap — nothing may stay parked into quiescence.
                    sim.schedule_at(f.end, lambda i=i: self._flush_reorder(i))

    # -- bookkeeping -------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def total_injected(self) -> int:
        """Total number of fault injections across all kinds."""
        return sum(self.injected.values())

    # -- the delivery gate -------------------------------------------------

    def _gate(self, msg: Message) -> bool:
        now = self.sim.now
        for i, fault in self._wire:
            if not fault.active(now) or msg.kind not in fault.frames:
                continue
            rng = self._rngs[i]
            if fault.kind == "drop":
                if rng.random() < fault.p:
                    self._count("drop")
                    msg.meta["drop_cause"] = "chaos.drop"
                    self.sim.trace.record(now, "chaos.drop", msg.dst,
                                          uid=msg.uid, src=msg.src,
                                          kind=msg.kind)
                    return False
            elif fault.kind == "duplicate":
                # A copy is never itself duplicated: redelivery re-runs
                # this gate (crash/partition state may have changed), and
                # without the marker a p=1.0 window turns one message
                # into a self-replicating chain of REDELIVERY_SPACING-
                # spaced copies — millions of events before the window
                # closes (found by `repro fuzz`; the meta dict is
                # per-message whenever an injector is installed, so the
                # stamp cannot cross-contaminate interned piggybacks).
                if "chaos.duplicated" not in msg.meta \
                        and rng.random() < fault.p:
                    self._count("duplicate")
                    msg.meta["chaos.duplicated"] = True
                    self.sim.trace.record(now, "chaos.duplicate", msg.dst,
                                          uid=msg.uid, src=msg.src,
                                          kind=msg.kind)
                    self.sim.schedule(REDELIVERY_SPACING,
                                      lambda m=msg: self._redeliver(m))
            elif fault.kind == "delay":
                if rng.random() < fault.p:
                    self._count("delay")
                    msg.meta["drop_cause"] = "chaos.delay"
                    self.sim.trace.record(now, "chaos.delay", msg.dst,
                                          uid=msg.uid, src=msg.src,
                                          kind=msg.kind, delay=fault.delay)
                    self.sim.schedule(fault.delay,
                                      lambda m=msg: self._redeliver(m))
                    return False
            elif fault.kind == "reorder":
                held = self._reorder_held[i]
                key = (msg.src, msg.dst)
                parked = held.get(key)
                if parked is not None:
                    # The successor arrived: deliver it now (fall through)
                    # and release the held one right after — order swapped.
                    del held[key]
                    self.sim.schedule(REDELIVERY_SPACING,
                                      lambda m=parked: self._redeliver(m))
                elif rng.random() < fault.p:
                    self._count("reorder")
                    held[key] = msg
                    msg.meta["drop_cause"] = "chaos.reorder"
                    self.sim.trace.record(now, "chaos.reorder", msg.dst,
                                          uid=msg.uid, src=msg.src,
                                          kind=msg.kind)
                    return False
        if self._prev_gate is not None:
            return self._prev_gate(msg)
        return True

    def _redeliver(self, msg: Message) -> None:
        """Deliver a duplicated/delayed/reordered message now.

        Re-runs the *full* gate chain first — the destination may have
        crashed or a partition begun since the message was intercepted
        (mirrors ``PartitionInjector._redeliver``).
        """
        msg.meta.pop("drop_cause", None)
        if not self.network.delivery_gate(msg):
            return
        msg.deliver_time = self.sim.now
        self.sim.trace.record(self.sim.now, "msg.deliver", msg.dst,
                              uid=msg.uid, src=msg.src, kind=msg.kind,
                              bytes=msg.total_bytes, redelivered=True)
        self.network.processes[msg.dst]._deliver(msg)

    def _flush_reorder(self, index: int) -> None:
        held = self._reorder_held[index]
        for j, key in enumerate(sorted(held)):
            self.sim.schedule((j + 1) * REDELIVERY_SPACING,
                              lambda m=held[key]: self._redeliver(m))
        held.clear()

    # -- storage faults ----------------------------------------------------

    def attach_storage(self, storage: Any) -> None:
        """Wrap ``storage.write`` with the plan's storage faults.

        * ``slow-flush`` — the write carries ``delay`` seconds of extra
          service time (modelled as the equivalent extra bytes at the
          disk's bandwidth);
        * ``torn-write`` / ``fsync-fail`` — the first attempt is wasted
          (an equal-size ``chaos:`` write occupies the disk) and the real
          write follows, modelling interrupt-and-retry.
        """
        faults = self.plan.storage_faults()
        if not faults:
            return
        # The wrapper becomes ``storage.write``, so it must not hold
        # ``storage`` strongly (that is a reference cycle): it reaches it
        # through a weak reference, which is live on every call because
        # every call comes through ``storage`` (DESIGN.md "Who owns whom").
        owner = weakref.ref(storage)
        inner = type(storage).write

        def write(pid: int, nbytes: int, label: str = "",
                  callback: Any = None) -> Any:
            store: Any = owner()
            now = self.sim.now
            extra = 0
            for i, fault in faults:
                if not fault.active(now):
                    continue
                if self._rngs[i].random() >= fault.p:
                    continue
                self._count(fault.kind)
                self.sim.trace.record(now, "chaos.storage", pid,
                                      fault=fault.kind, label=label)
                if fault.kind == "slow-flush":
                    extra += int(fault.delay * store.disk.bandwidth)
                else:  # torn-write / fsync-fail: wasted first attempt
                    inner(store, pid, nbytes,
                          label=f"chaos:{fault.kind}:{label}")
            return inner(store, pid, nbytes + extra, label=label,
                         callback=callback)

        storage.write = write


# -- the standard DES cell -------------------------------------------------

#: Cell geometry: small enough to run in well under a second, long enough
#: for several checkpoint rounds before, during and after the fault window.
DES_N = 4
DES_HORIZON = 120.0
DES_INTERVAL = 30.0
DES_TIMEOUT = 10.0


def default_des_plan(kind: str, seed: int = 0) -> FaultPlan:
    """The canonical one-fault plan the matrix runs for ``kind``.  The
    storage kinds hit every write in their window (p=1.0), so they fire by
    construction: at p=0.5 some seeds drew no write and tested nothing."""
    if kind == "drop":
        return single_fault_plan("drop", seed, p=0.15, start=10.0, end=70.0)
    if kind == "duplicate":
        return single_fault_plan("duplicate", seed, p=0.25,
                                 start=10.0, end=70.0)
    if kind == "reorder":
        return single_fault_plan("reorder", seed, p=0.3,
                                 start=10.0, end=70.0)
    if kind == "delay":
        return single_fault_plan("delay", seed, p=0.25, start=10.0,
                                 end=70.0, delay=3.0)
    if kind == "partition":
        return single_fault_plan("partition", seed, start=20.0, end=50.0,
                                 group_a=(0, 1),
                                 group_b=tuple(range(2, DES_N)))
    if kind == "crash":
        return single_fault_plan("crash", seed, pid=DES_N - 1, at=40.0)
    if kind == "torn-write":
        return single_fault_plan("torn-write", seed, p=1.0,
                                 start=5.0, end=80.0)
    if kind == "fsync-fail":
        return single_fault_plan("fsync-fail", seed, p=1.0,
                                 start=5.0, end=80.0)
    if kind == "slow-flush":
        return single_fault_plan("slow-flush", seed, p=1.0,
                                 start=5.0, end=80.0, delay=0.5)
    raise ChaosError(f"unknown fault kind {kind!r}")


def last_fault_end(plan: FaultPlan) -> float:
    """Simulated time after which the system runs fault-free: a delay
    window ends when the last message it held is redelivered."""
    end = 0.0
    for f in plan:
        if f.kind == "crash":
            end = max(end, (f.at or 0.0) + CRASH_RECOVERY_DELAY)
        elif f.end is not None:
            end = max(end, f.end + (f.delay if f.kind == "delay" else 0.0))
        else:
            end = max(end, f.start)
    return end


def cell_config(seed: int = 0) -> ExperimentConfig:
    """The matrix cell's experiment: the geometry above at ``seed``."""
    return ExperimentConfig(
        protocol="optimistic", n=DES_N, seed=seed, horizon=DES_HORIZON,
        checkpoint_interval=DES_INTERVAL, timeout=DES_TIMEOUT,
        state_bytes=1_000_000,
        workload_kwargs={"rate": 1.0, "msg_size": 512})


# -- the judge -------------------------------------------------------------


def _install_drop_ck_req(sim: Any, net: Any, storage: Any,
                         runtime: Any) -> None:
    """The seeded protocol bug: CK_REQ messages vanish in the network."""
    prev = net.delivery_gate

    def gate(msg: Any) -> bool:
        if msg.kind == "ctl" and msg.payload.ctype is ControlType.CK_REQ:
            msg.meta["drop_cause"] = "mutation.drop-ck-req"
            return False
        return True if prev is None else prev(msg)

    net.delivery_gate = gate


#: name -> before_run installer, applied underneath the chaos injector.
PROTOCOL_MUTATIONS: dict[str, Callable[..., None]] = {
    "drop-ck-req": _install_drop_ck_req,
}


def run_plan(plan: FaultPlan, cfg: ExperimentConfig, *,
             mutation: str | None = None,
             tracer: Any | None = None) -> dict[str, Any]:
    """Run ``plan`` at ``cfg`` and judge it; returns a picklable record.

    The record carries the verdict (``violations``, ``consistent``,
    ``recovered``) and the behavioral fields :mod:`repro.fuzz.coverage`
    tokenizes.  ``mutation`` names a :data:`PROTOCOL_MUTATIONS` entry.
    """
    if mutation is not None and mutation not in PROTOCOL_MUTATIONS:
        raise ValueError(f"unknown protocol mutation {mutation!r}")
    crashes = [f for _, f in plan.crash_faults()]
    holder: dict[str, Any] = {}

    def before_run(sim: Any, net: Any, storage: Any, runtime: Any) -> None:
        if mutation is not None:
            PROTOCOL_MUTATIONS[mutation](sim, net, storage, runtime)
        injector = DesChaosInjector(sim, net, plan)
        injector.attach_storage(storage)
        holder["injector"] = injector
        if crashes:
            rm = RecoveryManager(runtime)
            for f in crashes:
                rm.crash_and_recover(f.pid, f.at,
                                     recovery_delay=CRASH_RECOVERY_DELAY)
            holder["recovery"] = rm
        for host in runtime.hosts.values():
            host.driver.case_counts = {}

    # The property library below is the judge: the run itself does not
    # prove Theorem 2 a second time.
    result = run_experiment(cfg.derive(verify=False), tracer=tracer,
                            before_run=before_run)
    runtime = result.runtime
    injector: DesChaosInjector = holder["injector"]
    rm: RecoveryManager | None = holder.get("recovery")

    # -- behavioral aggregates (coverage food) ------------------------------
    # Counter.update keeps zero counts (``+`` would drop them).
    case_counts: Counter[str] = Counter()
    finalize_reasons: Counter[str] = Counter()
    ctl_sent: Counter[str] = Counter()
    for host in runtime.hosts.values():
        case_counts.update(host.driver.case_counts or {})
        finalize_reasons.update(host.finalize_reasons)
        ctl_sent.update(host.ctl_sent)

    injected = dict(injector.injected)
    dropped_by_cause = result.network.dropped_by_cause()
    if plan.partition_faults():
        # Partition parks are performed by the delegated PartitionInjector;
        # its per-cause drop counter is the injection count.
        injected["partition"] = dropped_by_cause.get("partition", 0)
    if rm is not None:
        injected["crash"] = len(rm.events)

    trace = result.sim.trace
    redelivered = sum(1 for *_, again in trace.select("msg.deliver",
                                                      "redelivered") if again)
    rollbacks = 0
    rollback_depths: list[int] = []
    finalized_seen: dict[int, set[int]] = {}
    for _, kind, pid, csn in trace.select(("ckpt.finalize", "ckpt.rollback"),
                                          "csn"):
        csn = 0 if csn is None else csn
        seen = finalized_seen.setdefault(pid, set())
        if kind == "ckpt.finalize":
            seen.add(csn)
        else:
            rollbacks += 1
            above = {k for k in seen if k > csn}
            rollback_depths.append(len(above))
            seen -= above

    # Convergence after the faults: some round must have finalized at every
    # process strictly after the last fault ended (Theorem 1 post-fault).
    fault_end = last_fault_end(plan)
    rounds = [s for s in runtime.finalized_seqs() if s > 0]
    post_fault_rounds = sum(
        1 for seq in rounds
        if min(host.finalized[seq].finalized_at
               for host in runtime.hosts.values()) > fault_end)
    recovered = (not result.truncated and post_fault_rounds >= 1
                 and sum(injected.values()) > 0)

    anomalies = runtime.anomalies()
    app_delivered = result.network.delivered_by_kind.get("app", 0)

    # -- the verdict: Theorem 1's convergence only holds at quiescence -----
    view = Snapshot.of_runtime(runtime, ConsistencyVerifier(trace).endpoints)
    found = property_violations(view, STATE_CHECKS if result.truncated
                                else STATE_CHECKS + TERMINAL_CHECKS)
    violations = [{"kind": prop.kind, "detail": "; ".join(messages[:4])}
                  for prop, messages in found]
    orphans = sum(len(messages) for prop, messages in found
                  if prop.kind == "orphans")
    if result.truncated:
        violations.append({
            "kind": "liveness",
            "detail": f"no quiescence within {cfg.max_events} events"
                      f" — a checkpoint round is stuck (Theorem 1)"})
    elif rm is not None and len(rm.events) != len(crashes):
        violations.append({
            "kind": "recovery-incomplete",
            "detail": f"{len(rm.events)} of {len(crashes)} crash cycles"
                      f" completed"})

    return {
        "mutation": mutation,
        "violations": violations,
        "truncated": result.truncated,
        "recovered": recovered,
        "consistent": not orphans and not anomalies,
        "case_counts": dict(case_counts),
        "finalize_reasons": dict(finalize_reasons),
        "ctl_sent": dict(ctl_sent),
        "injected": injected,
        "dropped_by_cause": dropped_by_cause,
        "recovered_actions": {"redelivered": redelivered,
                              "rollbacks": rollbacks},
        "rollback_depths": rollback_depths,
        "rounds": len(rounds),
        "post_fault_rounds": post_fault_rounds,
        "anomalies": anomalies,
        "orphans": orphans,
        "app_delivered": app_delivered,
        "events": len(plan.faults) + app_delivered,
        "makespan": result.sim.now,
    }


def run_des_cell(kind: str, seed: int = 0,
                 plan: FaultPlan | None = None,
                 tracer: Any | None = None) -> dict[str, Any]:
    """Run one DES matrix cell: ``plan`` (default: the canonical one-fault
    plan for ``kind``) judged at :func:`cell_config` (``seed``)."""
    if plan is None:  # an empty FaultPlan is falsy but still explicit
        plan = default_des_plan(kind, seed)
    outcome = run_plan(plan, cell_config(seed), tracer=tracer)
    return {"runtime": "des", "fault": kind, "seed": seed, **outcome}
