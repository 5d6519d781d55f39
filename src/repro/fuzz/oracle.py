"""The fuzzer's oracle: run one input, judge it against the theorems.

A run *violates* iff any of the conformance stack's checks fails:

* **Theorem 2 / no orphans** — the independent causality verifier
  (``ConsistencyVerifier.verify_all`` via the experiment harness) finds an
  orphan message against a collected global checkpoint;
* **anomaly** — a host observed a §3.4.3/§3.5.1 message proven
  impossible under the protocol's assumptions.  The fuzz input envelope
  (:meth:`FuzzInput.validate`) keeps every fault inside the paper's
  fault model, where the round-spread invariant (a round finalizes
  nowhere until every process joined it) makes anomalies unreachable —
  so any hit is a protocol bug, not an injector artifact;
* **Theorem 1 / liveness** — the run failed to quiesce under its event
  budget: escalation timers re-arm while a round is stuck, so a
  deadlocked protocol spins on the heap forever and truncation is the
  detection;
* **sequence discipline** — a host's finalized csns are not dense
  ``0..max``;
* **divergence** — hosts disagree on the set of finalized csns at
  quiescence;
* **recovery-incomplete** — a planned crash never completed its
  crash/rollback/restart cycle.

``run_input`` additionally returns the behavioral fields
:mod:`~repro.fuzz.coverage` tokenizes, and is a module-level picklable
entry point so ``map_jobs`` can fan campaigns across processes.

``PROTOCOL_MUTATIONS`` holds deliberate protocol breaks for fuzzer
discrimination tests: ``drop-ck-req`` silently discards every CK_REQ
control message — the §3.5.1 wave can then never tour, which is a
Theorem 1 liveness bug the campaign must find (and the clean protocol
must not exhibit).
"""

from __future__ import annotations

from typing import Any, Callable

from ..chaos.des import CRASH_RECOVERY_DELAY, DesChaosInjector, last_fault_end
from ..core.types import ControlType
from ..harness.experiment import ExperimentConfig, run_experiment
from ..recovery.restart import RecoveryManager
from .inputs import FuzzInput

FuzzOutcome = dict[str, Any]


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


def experiment_config(inp: FuzzInput) -> ExperimentConfig:
    """The harness config one fuzz input denotes."""
    return ExperimentConfig(
        protocol="optimistic",
        n=inp.n,
        seed=inp.seed,
        horizon=inp.horizon,
        checkpoint_interval=inp.interval,
        timeout=inp.timeout,
        state_bytes=1_000_000,
        topology=inp.schedule.topology,
        workload=inp.schedule.workload,
        workload_kwargs=inp.schedule.workload_kwargs(),
        max_events=inp.max_events(),
    )


def run_input(inp: FuzzInput, mutation: str | None = None,
              tracer: Any | None = None) -> FuzzOutcome:
    """Execute one fuzz input; returns the picklable outcome record."""
    inp.validate()
    if mutation is not None and mutation not in PROTOCOL_MUTATIONS:
        raise ValueError(f"unknown protocol mutation {mutation!r}")
    cfg = experiment_config(inp)
    plan = inp.plan
    holder: dict[str, Any] = {}

    def before_run(sim: Any, net: Any, storage: Any, runtime: Any) -> None:
        if mutation is not None:
            PROTOCOL_MUTATIONS[mutation](sim, net, storage, runtime)
        injector = DesChaosInjector(sim, net, plan)
        injector.attach_storage(storage)
        holder["injector"] = injector
        if plan.crash_faults():
            rm = RecoveryManager(runtime)
            for _, f in plan.crash_faults():
                rm.crash_and_recover(f.pid, f.at,
                                     recovery_delay=CRASH_RECOVERY_DELAY)
            holder["recovery"] = rm
        for host in runtime.hosts.values():
            host.driver.case_counts = {}

    result = run_experiment(cfg, tracer=tracer, before_run=before_run)
    runtime = result.runtime
    injector: DesChaosInjector = holder["injector"]
    rm: RecoveryManager | None = holder.get("recovery")

    # -- behavioral aggregates (coverage food) ------------------------------
    case_counts: dict[str, int] = {}
    finalize_reasons: dict[str, int] = {}
    ctl_sent: dict[str, int] = {}
    for host in runtime.hosts.values():
        for k, v in (host.driver.case_counts or {}).items():
            case_counts[k] = case_counts.get(k, 0) + v
        for k, v in host.finalize_reasons.items():
            finalize_reasons[k] = finalize_reasons.get(k, 0) + v
        for k, v in host.ctl_sent.items():
            ctl_sent[k] = ctl_sent.get(k, 0) + v

    injected = dict(injector.injected)
    dropped_by_cause = result.network.dropped_by_cause()
    if plan.partition_faults():
        injected["partition"] = dropped_by_cause.get("partition", 0)
    if rm is not None:
        injected["crash"] = len(rm.events)

    redelivered = 0
    rollbacks = 0
    rollback_depths: list[int] = []
    finalized_seen: dict[int, set[int]] = {}
    for rec in result.sim.trace.records:
        kind = rec.kind
        if kind == "msg.deliver":
            if rec.data.get("redelivered"):
                redelivered += 1
        elif kind == "ckpt.finalize":
            finalized_seen.setdefault(rec.process, set()).add(
                rec.data.get("csn", 0))
        elif kind == "ckpt.rollback":
            rollbacks += 1
            csn = rec.data.get("csn", 0)
            seen = finalized_seen.setdefault(rec.process, set())
            above = {k for k in seen if k > csn}
            rollback_depths.append(len(above))
            seen -= above

    fault_end = last_fault_end(plan)
    post_fault_rounds = 0
    rounds = [s for s in runtime.finalized_seqs() if s > 0]
    for seq in rounds:
        ends = [runtime.hosts[pid].finalized[seq].finalized_at
                for pid in runtime.hosts]
        if min(ends) > fault_end:
            post_fault_rounds += 1
    recovered = (not result.truncated and post_fault_rounds >= 1
                 and sum(injected.values()) > 0)

    anomalies = runtime.anomalies()
    orphans = sum(result.orphans.values())
    app_delivered = result.network.delivered_by_kind.get("app", 0)

    # -- the verdict --------------------------------------------------------
    violations: list[dict[str, str]] = []
    if orphans:
        violations.append({
            "kind": "orphans",
            "detail": f"{orphans} orphan message(s) against the collected"
                      f" global checkpoint (Theorem 2)"})
    if anomalies:
        violations.append({
            "kind": "anomaly",
            "detail": "; ".join(anomalies[:4])})
    if result.truncated:
        violations.append({
            "kind": "liveness",
            "detail": f"no quiescence within {cfg.max_events} events —"
                      f" a checkpoint round is stuck (Theorem 1)"})
    else:
        stuck = [pid for pid, host in runtime.hosts.items()
                 if host.machine.tentative]
        if stuck:
            violations.append({
                "kind": "stuck-status",
                "detail": f"processes {stuck} still tentative at"
                          f" quiescence"})
        seq_sets = {pid: frozenset(host.finalized)
                    for pid, host in runtime.hosts.items()}
        for pid, seqs in seq_sets.items():
            dense = frozenset(range(max(seqs) + 1)) if seqs else frozenset()
            if seqs != dense:
                violations.append({
                    "kind": "sequence",
                    "detail": f"P{pid} finalized csns not dense:"
                              f" {sorted(seqs)[:12]}"})
                break
        if len(set(seq_sets.values())) > 1:
            violations.append({
                "kind": "divergence",
                "detail": "hosts disagree on finalized csn sets: "
                          + str({p: max(s, default=0)
                                 for p, s in seq_sets.items()})})
        if rm is not None and len(rm.events) != len(
                list(plan.crash_faults())):
            violations.append({
                "kind": "recovery-incomplete",
                "detail": f"{len(rm.events)} of"
                          f" {len(list(plan.crash_faults()))} crash cycles"
                          f" completed"})

    return {
        "input": inp.as_dict(),
        "mutation": mutation,
        "violations": violations,
        "truncated": result.truncated,
        "recovered": recovered,
        "consistent": not orphans and not anomalies,
        "case_counts": case_counts,
        "finalize_reasons": finalize_reasons,
        "ctl_sent": ctl_sent,
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


def run_item(item: tuple[dict[str, Any], str | None]) -> FuzzOutcome:
    """``map_jobs`` worker: (input dict, mutation name) -> outcome."""
    input_dict, mutation = item
    return run_input(FuzzInput.from_dict(input_dict), mutation=mutation)
