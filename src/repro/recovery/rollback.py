"""Post-hoc recovery-cost analysis, per protocol.

Given one finished (failure-free) run and a hypothetical failure time, each
``recover_*`` function answers: *to what state would every process recover,
and how much work is lost?*  This is experiment E8's engine and directly
quantifies the paper's recovery story:

* **optimistic** — roll back to the last fully-finalized ``S_k``; because
  the checkpoint *includes* the selective message log, the recovered state
  of each process is its state at the finalization instant ``CFE_{i,k}``
  (restore ``CT`` then replay the log), not at the earlier tentative
  capture — selective logging buys back the tentative-to-finalize gap;
* **coordinated** (Chandy-Lamport / Koo-Toueg / staggered) — roll back to
  the last *complete* round's capture instants;
* **CIC / MS quasi-synchronous** — the same, over their index cuts: a
  cut's checkpoints are finalized when taken, so the last cut wholly in
  the past is the last complete one (:func:`recover_coordinated`);
* **uncoordinated** — run the rollback-propagation fixpoint over the
  checkpoints and messages that exist at the failure time: the domino
  effect in action; with receiver logging, logged messages are replayable
  and the line stays at the latest checkpoints.

Lost work for process ``i`` = failure time − the sim-time its recovered
state corresponds to (capped below at 0 for processes "recovered" to a
state captured after another's failure point — cannot happen for consistent
cuts, asserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..causality.recovery_line import (
    IntervalMessage,
    compute_recovery_line,
)
from ..des.trace import TraceRecorder


@dataclass
class RecoveryOutcome:
    """Result of one hypothetical recovery."""

    protocol: str
    fail_time: float
    #: Which cut was used (sequence number / round / index; -1 for the
    #: uncoordinated fixpoint which has no single id).
    seq: int
    #: pid -> simulated time of the recovered state.
    recovered_to: dict[int, float]
    #: pid -> work lost (fail_time - recovered_to).
    lost_work: dict[int, float] = field(default_factory=dict)
    #: pid -> checkpoints discarded (meaningful for uncoordinated).
    rollback_checkpoints: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lost_work:
            self.lost_work = {pid: self.fail_time - t
                              for pid, t in self.recovered_to.items()}
        for pid, lost in self.lost_work.items():
            assert lost >= -1e-9, (
                f"P{pid} 'recovered' to the future ({lost})")

    @property
    def total_lost_work(self) -> float:
        return sum(self.lost_work.values())

    @property
    def max_lost_work(self) -> float:
        return max(self.lost_work.values(), default=0.0)

    @property
    def processes_rolled_back(self) -> int:
        return sum(1 for d in self.rollback_checkpoints.values() if d > 0)


class NoRecoveryPoint(RuntimeError):
    """No complete global checkpoint exists before the failure time.

    Every protocol's initial state (t=0) is a valid fallback, so callers
    that want "restart from scratch" semantics catch this and use 0.
    """


def _last_cut(runtime: Any, fail_time: float
              ) -> tuple[int, dict[int, Any]] | None:
    """The last global checkpoint every member of which was finalized by
    ``fail_time`` (an in-progress round's writes may be partial)."""
    best = None
    for seq, records in runtime.global_records().items():
        if all(rec.finalized_at <= fail_time for rec in records.values()):
            best = (seq, records)
    return best


def recover_optimistic(runtime: Any, fail_time: float) -> RecoveryOutcome:
    """Recovery under the paper's protocol: last fully-finalized S_k."""
    cut = _last_cut(runtime, fail_time)
    if cut is None:
        raise NoRecoveryPoint(f"no finalized S_k before t={fail_time}")
    seq, records = cut
    # Restore CT, replay logSet ⇒ the state at the finalization event.
    recovered = {pid: min(rec.finalized_at, fail_time)
                 for pid, rec in records.items()}
    return RecoveryOutcome(protocol="optimistic", fail_time=fail_time,
                           seq=seq, recovered_to=recovered)


def recover_optimistic_no_log(runtime: Any,
                              fail_time: float) -> RecoveryOutcome:
    """Ablation: same cuts, but pretend the message log were *not* part of
    the checkpoint — recovery lands on the tentative-capture instants.

    The gap between this and :func:`recover_optimistic` is precisely the
    work the selective log buys back (E12 reports it).
    """
    base = recover_optimistic(runtime, fail_time)
    recovered = {}
    for pid, host in runtime.hosts.items():
        fc = host.finalized[base.seq]
        recovered[pid] = fc.tentative.taken_at
    return RecoveryOutcome(protocol="optimistic-nolog",
                           fail_time=fail_time, seq=base.seq,
                           recovered_to=recovered)


def recover_coordinated(runtime: Any, fail_time: float,
                        protocol: str) -> RecoveryOutcome:
    """Recovery for every baseline that forms global checkpoints (CL /
    Koo-Toueg / staggered / Plank / CIC / MS): the last complete cut.

    A round counts only if *every* process had completed (committed) it by
    the failure time — an in-progress round's writes may be partial.
    """
    cut = _last_cut(runtime, fail_time)
    if cut is None:
        raise NoRecoveryPoint(
            f"{protocol}: no complete round before t={fail_time}")
    seq, records = cut
    recovered = {pid: rec.taken_at for pid, rec in records.items()}
    return RecoveryOutcome(protocol=protocol, fail_time=fail_time,
                           seq=seq, recovered_to=recovered)


def interval_messages_at(runtime: Any, trace: TraceRecorder,
                         fail_time: float) -> tuple[
                             dict[int, int], list[IntervalMessage],
                             dict[int, list[float]]]:
    """Uncoordinated-recovery inputs restricted to events before ``fail_time``.

    Returns ``(start_cut, messages, checkpoint_times)`` where ``start_cut``
    maps each pid to its latest checkpoint number taken before the failure,
    ``messages`` locates every app message *delivered* before the failure
    (a duplicated message by its first delivery) by its endpoints'
    intervals, and ``checkpoint_times[pid][m]`` is the take time of
    checkpoint ``m`` (index 0 = t0 initial state).
    """
    deliver_time: dict[int, float] = {}
    for at, _, _, uid, kind in trace.select("msg.deliver", "uid", "kind"):
        if kind == "app":
            deliver_time.setdefault(uid, at)
    start: dict[int, int] = {}
    ck_times: dict[int, list[float]] = {}
    for pid, host in runtime.hosts.items():
        usable = [ck for ck in host.checkpoints if ck.taken_at <= fail_time]
        start[pid] = len(usable)
        ck_times[pid] = [0.0] + [ck.taken_at for ck in usable]
    send_interval: dict[int, tuple[int, int]] = {}
    for pid, host in runtime.hosts.items():
        usable = start[pid]
        for i, uid in enumerate(host.sent_uids):
            iv = sum(1 for ck in host.checkpoints[:usable] if ck.smark <= i)
            send_interval[uid] = (pid, iv)
    messages: list[IntervalMessage] = []
    for pid, host in runtime.hosts.items():
        usable = start[pid]
        for i, uid in enumerate(host.recv_uids):
            if deliver_time.get(uid, float("inf")) > fail_time:
                continue
            src, s_iv = send_interval[uid]
            r_iv = sum(1 for ck in host.checkpoints[:usable] if ck.rmark <= i)
            messages.append(IntervalMessage(src=src, src_interval=s_iv,
                                            dst=pid, dst_interval=r_iv,
                                            uid=uid))
    return start, messages, ck_times


def recover_uncoordinated(runtime: Any, trace: TraceRecorder,
                          fail_time: float,
                          use_logs: bool = False) -> RecoveryOutcome:
    """Recovery for independent checkpointing: the rollback fixpoint.

    With ``use_logs`` (and the runtime having logged receives), logged
    messages are replayable and never orphan — rollback collapses to the
    latest checkpoints, demonstrating message logging's rescue of the
    domino effect (paper §1 / reference [4]).
    """
    start, messages, ck_times = interval_messages_at(runtime, trace,
                                                     fail_time)
    if use_logs:
        logged = runtime.logged_uids()
        messages = [m for m in messages if m.uid not in logged]
    result = compute_recovery_line(start, messages)
    recovered = {pid: ck_times[pid][result.line[pid]] for pid in start}
    name = "uncoordinated+log" if use_logs else "uncoordinated"
    return RecoveryOutcome(protocol=name, fail_time=fail_time, seq=-1,
                           recovered_to=recovered,
                           rollback_checkpoints=result.rollbacks)
