"""Conformance: hold real executions to the paper's Theorem 2.

The simulator proves its runs consistent with
:class:`repro.causality.consistency.ConsistencyVerifier`; this module does
the same for *live* runs by replaying the per-worker journals
(:mod:`repro.live.journal`) into the exact structures the causality layer
consumes:

1. every ``send`` event contributes to the uid → (src, dst) endpoint map
   (including sends of later-discarded executions — they must be
   *classifiable*, not forgotten, or an orphan could hide);
2. each worker's surviving ``finalize`` events — after applying its
   ``rollback`` events, which discard generations above the recovery line
   exactly like :meth:`~repro.core.host.OptimisticProcess.rollback_to` —
   become chained :class:`~repro.causality.consistency.CheckpointRecord`
   increments, as in
   :meth:`~repro.core.host.OptimisticProcess.checkpoint_records`;
3. :meth:`repro.causality.consistency.ConsistencyVerifier.verify_all` then
   checks the no-orphan criterion on every *complete* global checkpoint
   ``S_k`` — the same single pass the simulator's runs go through.

The replay also cross-checks recovery semantics: every journaled
``rollback`` must restore the digest that replaying the on-journal
checkpoint claims — restart-from-disk and the in-memory protocol agreeing
is precisely what makes the live recovery path trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..causality.consistency import (
    CheckpointRecord,
    ConsistencyVerifier,
    Orphan,
)
from .journal import read_journal, worker_events


@dataclass
class ConformanceReport:
    """Outcome of replaying one live run's journals."""

    run_dir: str
    n: int
    #: Sequence numbers finalized by every process (complete S_k), incl. 0.
    complete_seqs: list[int] = field(default_factory=list)
    #: seq -> orphan messages found (empty everywhere == Theorem 2 holds).
    orphans: dict[int, list[Orphan]] = field(default_factory=dict)
    #: Replay problems that are not orphans (unclassifiable uids, digest
    #: mismatches after rollback, journaled protocol anomalies).
    problems: list[str] = field(default_factory=list)
    sends: int = 0
    receives: int = 0
    rollbacks: int = 0
    #: seq -> wall seconds from the round's first tentative checkpoint to
    #: its last finalization (the live convergence latency).
    round_latency: dict[int, float] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        """True iff every complete S_k is orphan-free and replay is clean."""
        return (not self.problems
                and all(not o for o in self.orphans.values()))

    @property
    def rounds_completed(self) -> list[int]:
        """Complete global checkpoints beyond the initial S_0."""
        return [s for s in self.complete_seqs if s > 0]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (what the CLI and CI smoke test print)."""
        return {
            "run_dir": self.run_dir,
            "n": self.n,
            "complete_seqs": self.complete_seqs,
            "rounds_completed": len(self.rounds_completed),
            "orphans": {str(s): [str(o) for o in orphans]
                        for s, orphans in self.orphans.items() if orphans},
            "orphan_count": sum(len(o) for o in self.orphans.values()),
            "problems": self.problems,
            "consistent": self.consistent,
            "sends": self.sends,
            "receives": self.receives,
            "rollbacks": self.rollbacks,
            "round_latency": {str(s): round(v, 6)
                              for s, v in sorted(self.round_latency.items())},
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"live conformance — {self.run_dir}",
            f"  workers:            {self.n}",
            f"  app messages:       {self.sends} sent / "
            f"{self.receives} received",
            f"  complete S_k:       {self.complete_seqs}",
            f"  rollbacks applied:  {self.rollbacks}",
        ]
        for seq in sorted(self.round_latency):
            lines.append(f"  round {seq} latency:    "
                         f"{self.round_latency[seq]:.3f}s")
        total = sum(len(o) for o in self.orphans.values())
        lines.append(f"  orphan messages:    {total}")
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        lines.append(f"  verdict:            "
                     f"{'CONSISTENT' if self.consistent else 'INCONSISTENT'}")
        return "\n".join(lines)


def _surviving_finalizes(events: list[dict[str, Any]],
                         problems: list[str]) -> dict[int, dict[str, Any]]:
    """One worker's finalize records after applying its rollbacks.

    A ``rollback`` to ``seq`` discards finalized generations above ``seq``
    (they belong to the abandoned execution); a later re-finalization of
    the same csn simply overwrites.  Also cross-checks the restart-from-
    disk digest: the digest journaled at rollback time must equal the one
    the surviving checkpoint's replay claims.
    """
    table: dict[int, dict[str, Any]] = {}
    tent_wall: dict[int, float] = {}
    for ev in events:
        kind = ev["ev"]
        if kind == "tentative":
            tent_wall[ev["csn"]] = ev["wall"]
        elif kind == "finalize":
            record = dict(ev)
            record["taken_wall"] = tent_wall.get(ev["csn"], ev["wall"])
            table[ev["csn"]] = record
        elif kind == "rollback":
            seq = ev["seq"]
            for csn in [c for c in sorted(table) if c > seq]:
                del table[csn]
            for csn in [c for c in sorted(tent_wall) if c > seq]:
                del tent_wall[csn]
            want = table.get(seq)
            if want is not None and want.get("digest") != ev.get("digest"):
                problems.append(
                    f"P{ev['pid']} rollback to {seq} restored digest "
                    f"{ev.get('digest')} but checkpoint replay claims "
                    f"{want.get('digest')}")
        elif kind == "anomaly":
            problems.append(
                f"P{ev['pid']} protocol anomaly: {ev.get('description')}")
    return table


def replay(run_dir: str | Path, n: int | None = None) -> ConformanceReport:
    """Replay every journal under ``run_dir`` and verify Theorem 2."""
    per_pid = worker_events(run_dir)
    if n is None:
        n = (max(per_pid) + 1) if per_pid else 0
    report = ConformanceReport(run_dir=str(run_dir), n=n)
    if not per_pid:
        report.problems.append("no worker journals found")
        return report
    missing = [pid for pid in range(n) if pid not in per_pid]
    if missing:
        report.problems.append(f"missing journals for pids {missing}")
        return report

    # 1. endpoint map from *all* sends (discarded executions included).
    endpoints: dict[int, tuple[int, int]] = {}
    for pid in range(n):
        for ev in per_pid[pid]:
            if ev["ev"] == "send":
                endpoints[ev["uid"]] = (pid, ev["dst"])
                report.sends += 1
            elif ev["ev"] == "recv":
                report.receives += 1
            elif ev["ev"] == "rollback":
                report.rollbacks += 1

    # 2. surviving finalize records per worker.
    surviving = {pid: _surviving_finalizes(per_pid[pid], report.problems)
                 for pid in range(n)}

    # 3. complete S_k = generations every worker finalized.
    common: set[int] | None = None
    for pid in range(n):
        seqs = set(surviving[pid])
        common = seqs if common is None else (common & seqs)
    report.complete_seqs = sorted(common or ())

    # 4. one chained record per surviving finalize, then every complete
    #    S_k in a single pass over the increments.
    chains: dict[int, dict[int, CheckpointRecord]] = {}
    for pid in range(n):
        prev: CheckpointRecord | None = None
        chains[pid] = {}
        for csn in sorted(surviving[pid]):
            rec = surviving[pid][csn]
            prev = chains[pid][csn] = CheckpointRecord(
                pid=pid, seq=csn, taken_at=rec["taken_wall"],
                finalized_at=rec["wall"],
                new_sent_uids=frozenset(rec["new_sent"]),
                new_recv_uids=frozenset(rec["new_recv"]), prev=prev)
    by_seq = {seq: {pid: chains[pid][seq] for pid in range(n)}
              for seq in report.complete_seqs}
    try:
        report.orphans = ConsistencyVerifier(
            endpoints=endpoints).verify_all(by_seq)
    except KeyError as exc:
        # A receive with no send record anywhere (journal loss): nothing
        # can be classified, so no S_k gets a verdict.
        report.problems.append(
            f"a checkpoint records receives of unknown uids "
            f"(first: #{exc.args[0]})")
    for seq, records in by_seq.items():
        if seq > 0:
            starts = [rec.taken_at for rec in records.values()]
            ends = [rec.finalized_at for rec in records.values()]
            report.round_latency[seq] = max(ends) - min(starts)
    return report


def supervisor_events(run_dir: str | Path) -> list[dict[str, Any]]:
    """The supervisor's own journal (crash injections, recovery times)."""
    path = Path(run_dir) / "supervisor.jsonl"
    if not path.exists():
        return []
    return read_journal(path)
