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
   increments through :func:`~repro.causality.consistency.chain`, as in
   :meth:`~repro.core.host.OptimisticProcess.checkpoint_records`;
3. :meth:`repro.causality.consistency.ConsistencyVerifier.verify_all` then
   checks the no-orphan criterion on every *complete* global checkpoint
   ``S_k`` — the same single pass the simulator's runs go through.

The replay also cross-checks recovery semantics: every journaled
``rollback`` must restore the digest that replaying the on-journal
checkpoint claims — restart-from-disk and the in-memory protocol agreeing
is precisely what makes the live recovery path trustworthy.

Steps 1 and 2 are one streaming pass per journal file
(:func:`~repro.live.journal.iter_journal`): each record is folded as it
is read and then dropped.  What the replay keeps is the
checkpoint-and-communication pattern only — one endpoint entry per
``send`` (a uid key and a ``(src, dst)`` tuple shared by every send of
that pair), the send / receive / rollback counters, and per worker the
surviving finalize table, whose ``new_sent`` / ``new_recv`` increments
are frozensets from the moment their line is parsed.  Its memory follows
the number of sends and of checkpointed uids, not the journal's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from ..causality.consistency import (
    ConsistencyVerifier,
    Orphan,
    chain,
    complete_cuts,
    round_latencies,
)
from .journal import iter_journal, iter_run_journals


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


class _Finalize(NamedTuple):
    """What the replay keeps of one surviving ``finalize`` record."""

    taken_at: float
    finalized_at: float
    digest: Any
    new_sent: frozenset[int]
    new_recv: frozenset[int]


def _fold_worker(pid: int, events: Iterable[dict[str, Any]],
                 endpoints: dict[int, tuple[int, int]],
                 report: ConformanceReport) -> dict[int, _Finalize]:
    """Fold one worker's event stream; returns its surviving finalizes.

    Each ``send`` adds its uid to ``endpoints`` (one ``(src, dst)`` tuple
    per destination, shared); ``recv`` and ``rollback`` are counted.  A
    ``rollback`` to ``seq`` discards finalized generations above ``seq``
    (they belong to the abandoned execution); a later re-finalization of
    the same csn simply overwrites.  Also cross-checks the restart-from-
    disk digest: the digest journaled at rollback time must equal the one
    the surviving checkpoint's replay claims.
    """
    table: dict[int, _Finalize] = {}
    tent_wall: dict[int, float] = {}
    pairs: dict[int, tuple[int, int]] = {}
    sends = receives = rollbacks = 0
    for ev in events:
        kind = ev["ev"]
        if kind == "send":
            dst = ev["dst"]
            pair = pairs.get(dst)
            if pair is None:
                pair = pairs[dst] = (pid, dst)
            endpoints[ev["uid"]] = pair
            sends += 1
        elif kind == "recv":
            receives += 1
        elif kind == "tentative":
            tent_wall[ev["csn"]] = ev["wall"]
        elif kind == "finalize":
            csn = ev["csn"]
            table[csn] = _Finalize(
                taken_at=tent_wall.get(csn, ev["wall"]),
                finalized_at=ev["wall"], digest=ev.get("digest"),
                new_sent=frozenset(ev["new_sent"]),
                new_recv=frozenset(ev["new_recv"]))
        elif kind == "rollback":
            rollbacks += 1
            seq = ev["seq"]
            for csn in [c for c in table if c > seq]:
                del table[csn]
            for csn in [c for c in tent_wall if c > seq]:
                del tent_wall[csn]
            want = table.get(seq)
            if want is not None and want.digest != ev.get("digest"):
                report.problems.append(
                    f"P{ev['pid']} rollback to {seq} restored digest "
                    f"{ev.get('digest')} but checkpoint replay claims "
                    f"{want.digest}")
        elif kind == "anomaly":
            report.problems.append(
                f"P{ev['pid']} protocol anomaly: {ev.get('description')}")
    report.sends += sends
    report.receives += receives
    report.rollbacks += rollbacks
    return table


def replay(run_dir: str | Path, n: int | None = None) -> ConformanceReport:
    """Replay every journal under ``run_dir`` and verify Theorem 2.

    One streaming pass per journal file: what is kept is one endpoint
    entry per send, three counters, and each worker's surviving finalize
    increments — never the records themselves.
    """
    journals = list(iter_run_journals(run_dir))
    pids = {pid for pid, _inc, _events in journals}
    if n is None:
        n = (max(pids) + 1) if pids else 0
    report = ConformanceReport(run_dir=str(run_dir), n=n)
    if not pids:
        report.problems.append("no worker journals found")
        return report
    missing = [pid for pid in range(n) if pid not in pids]

    # 1.-2. endpoint map from *all* sends (discarded executions included)
    #    and the surviving finalize records, worker by worker.  Journals
    #    that do not count are read all the same: corruption raises.
    endpoints: dict[int, tuple[int, int]] = {}
    surviving: dict[int, dict[int, _Finalize]] = {}
    for pid, group in groupby(journals, key=itemgetter(0)):
        events = (ev for _pid, _inc, evs in group for ev in evs)
        if missing or pid >= n:
            for _ in events:
                pass
        else:
            surviving[pid] = _fold_worker(pid, events, endpoints, report)
    if missing:
        report.problems.append(f"missing journals for pids {missing}")
        return report

    # 3.-4. one chained record per surviving finalize; complete S_k =
    #    generations every worker finalized, checked in a single pass over
    #    the increments.
    by_seq = complete_cuts({pid: chain(pid, (
        (csn, f.taken_at, f.finalized_at, f.new_sent, f.new_recv, 0, 0)
        for csn, f in sorted(surviving[pid].items()))) for pid in range(n)})
    report.complete_seqs = list(by_seq)
    try:
        report.orphans = ConsistencyVerifier(
            endpoints=endpoints).verify_all(by_seq)
    except KeyError as exc:
        # A receive with no send record anywhere (journal loss): nothing
        # can be classified, so no S_k gets a verdict.
        report.problems.append(
            f"a checkpoint records receives of unknown uids "
            f"(first: #{exc.args[0]})")
    report.round_latency = round_latencies(by_seq)
    return report


def supervisor_events(run_dir: str | Path) -> list[dict[str, Any]]:
    """The supervisor's own journal (crash injections, recovery times)."""
    path = Path(run_dir) / "supervisor.jsonl"
    if not path.exists():
        return []
    return list(iter_journal(path))
