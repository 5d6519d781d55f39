"""Global-checkpoint consistency verification.

Paper §2.2: a global checkpoint is **consistent** iff it has no *orphan*
message — one whose receive is recorded in the global checkpoint while its
send is not.

Under the optimistic protocol, the events recorded by ``C_{i,k}`` are exactly
those that happened before the finalization event ``CFE_{i,k}`` (paper
equation (1)), with one carve-out: the message that *announces* a peer's
finalization is excluded from the log (the paper's ``M_8``/``M_9`` rule).
Protocol hosts therefore report, per finalized checkpoint, the precise uid
sets of application messages whose send/receive the checkpoint records; the
verifier here checks the no-orphan property over those sets.

Every runtime — the DES host, the baselines and the live replay — builds
its records with :func:`chain` and picks the complete ``S_k`` with
:func:`complete_cuts`; then:

* :class:`ConsistencyVerifier` — binds records to a trace (or a journal's
  endpoint map) so it can resolve each uid's endpoints;
  :meth:`~ConsistencyVerifier.verify_all` checks every ``S_k`` of a run in
  one pass over the checkpoints' *increments*, so proving Theorem 2 costs
  O(messages), not O(rounds × messages);
* :func:`find_orphans` — pure set logic over one cut of
  :class:`CheckpointRecord`s: the definition, and the reference the pass
  is tested against (no run path calls it);
* :func:`cut_orphans` — checks arbitrary *time cuts* (used by the Figure 1
  scenario where checkpoints are plain time points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..des.trace import TraceRecorder


_EMPTY: frozenset[int] = frozenset()


class CheckpointRecord:
    """What one finalized checkpoint ``C_{pid, seq}`` records.

    A record holds the *increment*: the uids of application messages whose
    send / receive the checkpoint captures beyond ``prev``, the same
    process's previous record (recorded sets are monotone in ``seq``).  For
    the optimistic protocol the increment is the window of ``C_{pid, seq}``:
    events between the previous ``CFE`` and this one, minus the paper's
    excluded trigger message.

    ``sent_uids`` / ``recv_uids`` are the cumulative views — everything the
    checkpoint records, i.e. the union of the increments along the ``prev``
    chain — built on first read and only for callers that read them.

    The first record of a chain has no ``prev``: its increment *is*
    everything it records.  Runs build records with :func:`chain` only.
    """

    __slots__ = ("pid", "seq", "taken_at", "finalized_at", "new_sent_uids",
                 "new_recv_uids", "prev", "state_bytes", "log_bytes",
                 "_sent_uids", "_recv_uids")

    def __init__(self, pid: int, seq: int, taken_at: float,
                 finalized_at: float, *,
                 new_sent_uids: frozenset[int] = _EMPTY,
                 new_recv_uids: frozenset[int] = _EMPTY,
                 prev: "CheckpointRecord | None" = None,
                 state_bytes: int = 0, log_bytes: int = 0) -> None:
        self.pid = pid
        self.seq = seq
        self.taken_at = taken_at
        self.finalized_at = finalized_at
        self.new_sent_uids = new_sent_uids
        self.new_recv_uids = new_recv_uids
        self.prev = prev
        self.state_bytes = state_bytes
        self.log_bytes = log_bytes
        self._sent_uids: frozenset[int] | None = None
        self._recv_uids: frozenset[int] | None = None

    @property
    def sent_uids(self) -> frozenset[int]:
        """Every send the checkpoint records (cumulative, built lazily)."""
        if self._sent_uids is None:
            self._sent_uids = self._cumulative("new_sent_uids", "_sent_uids")
        return self._sent_uids

    @property
    def recv_uids(self) -> frozenset[int]:
        """Every receive the checkpoint records (cumulative, built lazily)."""
        if self._recv_uids is None:
            self._recv_uids = self._cumulative("new_recv_uids", "_recv_uids")
        return self._recv_uids

    def _cumulative(self, increment: str, cache: str) -> frozenset[int]:
        """Union of ``increment`` back to the nearest record that already
        holds its cumulative view (or the start of the chain)."""
        if self.prev is None:
            return getattr(self, increment)
        parts = []
        node: CheckpointRecord | None = self
        while node is not None:
            known = getattr(node, cache)
            if known is not None:
                parts.append(known)
                break
            parts.append(getattr(node, increment))
            node = node.prev
        return frozenset().union(*parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CheckpointRecord(P{self.pid}, seq={self.seq}, "
                f"+{len(self.new_sent_uids)} sent, "
                f"+{len(self.new_recv_uids)} recv, "
                f"{'chained' if self.prev is not None else 'chain start'})")


#: One :func:`chain` row: ``(seq, taken_at, finalized_at, new_sent,
#: new_recv, state_bytes, log_bytes)``, the increments over the row before.
Row = tuple[int, float, float, frozenset[int], frozenset[int], int, int]


def chain(pid: int, rows: Iterable[Row]) -> dict[int, CheckpointRecord]:
    """``pid``'s chained records, seq -> record, from its rows in seq order.

    Each record's increment is its row's ``new_sent`` / ``new_recv`` and
    its ``prev`` is the record of the row before, so the cumulative views
    are the unions of the increments so far.
    """
    out: dict[int, CheckpointRecord] = {}
    prev: CheckpointRecord | None = None
    for seq, taken_at, finalized_at, new_sent, new_recv, state_bytes, \
            log_bytes in rows:
        prev = out[seq] = CheckpointRecord(
            pid, seq, taken_at, finalized_at, new_sent_uids=new_sent,
            new_recv_uids=new_recv, prev=prev, state_bytes=state_bytes,
            log_bytes=log_bytes)
    return out


def complete_cuts(chains: dict[int, dict[int, CheckpointRecord]]
                  ) -> dict[int, dict[int, CheckpointRecord]]:
    """seq -> {pid: record} for every seq that all of ``chains`` hold,
    ascending — the complete global checkpoints ``S_k``."""
    if not chains:
        return {}
    common = set.intersection(*map(set, chains.values()))
    return {seq: {pid: records[seq] for pid, records in chains.items()}
            for seq in sorted(common)}


def round_latencies(cuts: dict[int, dict[int, CheckpointRecord]]
                    ) -> dict[int, float]:
    """Per cut of :func:`complete_cuts` beyond ``S_0``: the round's span,
    from its first checkpoint taken to its last finalized."""
    return {seq: (max(rec.finalized_at for rec in records.values())
                  - min(rec.taken_at for rec in records.values()))
            for seq, records in cuts.items() if seq > 0}


@dataclass(frozen=True)
class Orphan:
    """One consistency violation: uid received-but-not-sent w.r.t. a cut."""

    uid: int
    src: int
    dst: int
    seq: int

    def __str__(self) -> str:
        return (f"orphan message #{self.uid} P{self.src}->P{self.dst} "
                f"w.r.t. global checkpoint S_{self.seq}")


def find_orphans(records: dict[int, CheckpointRecord],
                 endpoints: dict[int, tuple[int, int]]) -> list[Orphan]:
    """Orphans of the global checkpoint formed by ``records``.

    Parameters
    ----------
    records:
        One :class:`CheckpointRecord` per pid; all must share a ``seq``.
    endpoints:
        Map uid -> (src, dst) for application messages (from the trace).

    Only messages between processes present in ``records`` are considered;
    a receive recorded for a message whose sender is outside the cut cannot
    be classified and raises ``KeyError`` by design (a global checkpoint
    must cover every process, paper §2.2).
    """
    seqs = {r.seq for r in records.values()}
    if len(seqs) > 1:
        raise ValueError(f"records span multiple sequence numbers: {sorted(seqs)}")
    seq = seqs.pop() if seqs else -1
    orphans: list[Orphan] = []
    for dst_pid, rec in records.items():
        for uid in sorted(rec.recv_uids):
            src, dst = endpoints[uid]
            if dst != dst_pid:
                raise ValueError(
                    f"record for P{dst_pid} claims receipt of #{uid} "
                    f"destined to P{dst}")
            sender_rec = records[src]
            if uid not in sender_rec.sent_uids:
                orphans.append(Orphan(uid=uid, src=src, dst=dst, seq=seq))
    return orphans


def cut_orphans(cut_times: dict[int, float], trace: TraceRecorder,
                kind: str = "app") -> list[Orphan]:
    """Orphans of a *time cut*: checkpoint of pid = its state at cut_times[pid].

    A message is an orphan iff it was delivered to ``dst`` strictly before
    ``cut_times[dst]`` but sent by ``src`` at-or-after ``cut_times[src]``.
    Used by the Figure 1 scenario and by baselines whose checkpoints are
    instantaneous state saves.  A message delivered more than once (a
    duplicate) counts at its first delivery and is reported once.
    """
    sends = {uid: (src, dst, stime) for stime, _, src, mkind, uid, dst
             in trace.select("msg.send", "kind", "uid", "dst")
             if mkind == kind}
    seen: set[int] = set()
    orphans: list[Orphan] = []
    for dtime, _, _, mkind, uid in trace.select("msg.deliver", "kind", "uid"):
        if mkind != kind or uid in seen:
            continue
        seen.add(uid)
        src, dst, stime = sends[uid]
        if dtime < cut_times[dst] and stime >= cut_times[src]:
            orphans.append(Orphan(uid=uid, src=src, dst=dst, seq=-1))
    return orphans


class _IncrementPass:
    """Orphans of successive cuts, each increment folded in once.

    Recorded sets only grow along a process's chain, so an orphan of
    ``S_k`` is a receive recorded by then whose send is not: it enters
    ``pending`` when the receiver's increment is folded and leaves when the
    sender's is.  What is pending after a cut's increments *are* that cut's
    orphans — no cut is ever rebuilt from scratch.
    """

    def __init__(self, endpoints: dict[int, tuple[int, int]]) -> None:
        self.endpoints = endpoints
        #: Record folded last per pid: where the next cut's chains must end.
        self.last: dict[int, CheckpointRecord] = {}
        self.sent: dict[int, set[int]] = {}
        #: uid -> (src, dst) of receives recorded ahead of their send.
        self.pending: dict[int, tuple[int, int]] = {}
        self.examined = 0

    def _steps(self, records: dict[int, CheckpointRecord]
               ) -> list[tuple[int, list[CheckpointRecord]]]:
        """Per pid, the records between the previous cut and this one;
        ``ValueError`` when the cut does not extend what has been folded."""
        last = self.last
        if last and last.keys() != records.keys():
            raise ValueError(
                f"cut over pids {sorted(records)} does not continue the "
                f"cut over pids {sorted(last)}")
        steps = []
        for pid, rec in records.items():
            stop = last.get(pid)
            links = []
            node: CheckpointRecord | None = rec
            while node is not None and node is not stop:
                links.append(node)
                node = node.prev
            if node is not stop:
                raise ValueError(
                    f"P{pid} C_{rec.seq} does not continue the chain "
                    f"folded so far")
            steps.append((pid, links))
        return steps

    def advance(self, records: dict[int, CheckpointRecord]) -> list[Orphan]:
        """Fold one cut in and return its orphans, in :func:`find_orphans`
        order."""
        steps = self._steps(records)
        seqs = {r.seq for r in records.values()}
        if len(seqs) > 1:
            raise ValueError(
                f"records span multiple sequence numbers: {sorted(seqs)}")
        sent, pending, endpoints = self.sent, self.pending, self.endpoints
        # Sends before receives: a message whose both ends fall inside this
        # cut's increments must find its send already there.
        for pid, chain in steps:
            mine = sent.setdefault(pid, set())
            for rec in chain:
                new = rec.new_sent_uids
                self.examined += len(new)
                mine |= new
                if pending:
                    for uid in pending.keys() & new:
                        if pending[uid][0] == pid:
                            del pending[uid]
        for pid, chain in steps:
            for rec in chain:
                new = rec.new_recv_uids
                self.examined += len(new)
                for uid in new:
                    src, dst = endpoints[uid]
                    if dst != pid:
                        raise ValueError(
                            f"record for P{pid} claims receipt of #{uid} "
                            f"destined to P{dst}")
                    if uid not in sent[src]:
                        pending[uid] = (src, dst)
        self.last = records
        if not pending:
            return []
        seq = seqs.pop()
        order = {pid: i for i, pid in enumerate(records)}
        return [Orphan(uid=uid, src=src, dst=dst, seq=seq)
                for uid, (src, dst) in sorted(
                    pending.items(), key=lambda kv: (order[kv[1][1]], kv[0]))]


class ConsistencyVerifier:
    """Verifier for finalized global checkpoints, bound to the uid ->
    endpoints map of a trace (or one given directly, e.g. from a journal)."""

    def __init__(self, trace: TraceRecorder | None = None, *,
                 endpoints: dict[int, tuple[int, int]] | None = None) -> None:
        self.trace = trace
        self._endpoints: dict[int, tuple[int, int]] = (
            {} if endpoints is None else endpoints)
        #: uid -> send / first-delivery time, built on the first
        #: :meth:`cross_check_record` (no run path calls it).
        self._times: tuple[dict[int, float], dict[int, float]] | None = None
        #: uids looked at by :meth:`verify_all` so far (sends + receives);
        #: linear in the run's messages, whatever the number of rounds.
        self.uids_examined = 0
        if trace is not None:
            for _, _, src, kind, uid, dst in trace.select(
                    "msg.send", "kind", "uid", "dst"):
                if kind == "app":
                    self._endpoints[uid] = (src, dst)

    @property
    def endpoints(self) -> dict[int, tuple[int, int]]:
        """uid -> (src, dst) for every known application message."""
        return self._endpoints

    def verify_all(self, by_seq: dict[int, dict[int, CheckpointRecord]]
                   ) -> dict[int, list[Orphan]]:
        """Verify every complete global checkpoint; returns seq -> orphans.

        One pass over the records' increments (see :class:`_IncrementPass`):
        each cut's chains are folded in from where the previous cut left
        them, and the result is what :func:`find_orphans` gives cut by cut.
        A cut whose chains do not continue those folded so far (the cuts of
        :func:`complete_cuts` always do) raises ``ValueError``.
        """
        fold = _IncrementPass(self._endpoints)
        results = {seq: fold.advance(records)
                   for seq, records in sorted(by_seq.items())}
        self.uids_examined += fold.examined
        return results

    def assert_consistent(self, by_seq: dict[int, dict[int, CheckpointRecord]]
                          ) -> int:
        """Raise ``AssertionError`` on any orphan; returns #cuts checked."""
        results = self.verify_all(by_seq)
        for seq, orphans in results.items():
            assert not orphans, (
                f"S_{seq} inconsistent: " + "; ".join(map(str, orphans)))
        return len(results)

    def cross_check_record(self, rec: CheckpointRecord,
                           cfe_time: float) -> None:
        """Validate a record's sets against raw trace timestamps.

        Everything recorded must have actually happened before the
        finalization instant — catches protocol-host bookkeeping bugs
        independently of the orphan check.
        """
        send_time, deliver_time = self._event_times()
        for uid in sorted(rec.sent_uids):
            st = send_time.get(uid)
            assert st is not None and st <= cfe_time, (
                f"P{rec.pid} C_{rec.seq} records send #{uid} at {st} "
                f"after CFE {cfe_time}")
        for uid in sorted(rec.recv_uids):
            dt = deliver_time.get(uid)
            assert dt is not None and dt <= cfe_time, (
                f"P{rec.pid} C_{rec.seq} records receive #{uid} at {dt} "
                f"after CFE {cfe_time}")

    def _event_times(self) -> tuple[dict[int, float], dict[int, float]]:
        """uid -> send time and uid -> *first* delivery time (a duplicate
        delivery is not when the message was received)."""
        if self._times is None:
            send_time: dict[int, float] = {}
            deliver_time: dict[int, float] = {}
            if self.trace is not None:
                for time, _, _, kind, uid in self.trace.select(
                        "msg.send", "kind", "uid"):
                    if kind == "app":
                        send_time[uid] = time
                for time, _, _, kind, uid in self.trace.select(
                        "msg.deliver", "kind", "uid"):
                    if kind == "app":
                        deliver_time.setdefault(uid, time)
            self._times = (send_time, deliver_time)
        return self._times
