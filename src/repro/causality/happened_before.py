"""Happened-before event graph.

Builds Lamport's relation ``hb = (xo ∪ m)+`` (paper §2.2) from a simulation
trace:

* **xo** (execution order): consecutive local events of one process;
* **m** (message order): ``send(M) -> receive(M)``, matched by message uid.

Events are the trace records themselves (identified by their global ``seq``),
so *any* traced occurrence — deliveries, sends, tentative checkpoints,
finalizations — participates in the relation.  Happened-before is graph
reachability; the verifier uses it as the ground-truth oracle, with vector
clocks as the fast cross-check.
"""

from __future__ import annotations

from ..des.trace import TraceRecord, TraceRecorder
from .vector_clock import VectorClock

#: Trace kinds that count as process events for the hb relation.  ``msg.send``
#: and ``msg.deliver`` are emitted by the network; checkpoint kinds by the
#: protocol hosts.
DEFAULT_EVENT_KINDS = (
    "msg.send",
    "msg.deliver",
    "ckpt.tentative",
    "ckpt.finalize",
    "app.internal",
)


class EventGraph:
    """Happened-before DAG over trace records.

    Parameters
    ----------
    trace:
        The recorder to index.
    n:
        Number of processes (width of computed vector clocks).
    kinds:
        Which record kinds become events (default
        :data:`DEFAULT_EVENT_KINDS`).
    """

    def __init__(self, trace: TraceRecorder, n: int,
                 kinds: tuple[str, ...] = DEFAULT_EVENT_KINDS) -> None:
        self.n = n
        #: event seq -> seqs of its direct successors (xo and m edges).
        self._succ: dict[int, list[int]] = {}
        #: deliver seq -> seq of the matching send (the m edges).
        self._send_of: dict[int, int] = {}
        self.events: list[TraceRecord] = []
        self._by_seq: dict[int, TraceRecord] = {}
        kinds_set = set(kinds)
        last_of_process: dict[int, int] = {}
        send_of_uid: dict[int, int] = {}

        for rec in trace:
            if rec.kind not in kinds_set or rec.process < 0:
                continue
            self.events.append(rec)
            self._by_seq[rec.seq] = rec
            self._succ[rec.seq] = []
            # xo edge from this process's previous event.
            prev = last_of_process.get(rec.process)
            if prev is not None:
                self._succ[prev].append(rec.seq)
            last_of_process[rec.process] = rec.seq
            # m edges via message uid.
            uid = rec.data.get("uid")
            if rec.kind == "msg.send" and uid is not None:
                send_of_uid[uid] = rec.seq
            elif rec.kind == "msg.deliver" and uid is not None:
                s = send_of_uid.get(uid)
                if s is not None:
                    self._send_of[rec.seq] = s
                    if s != prev:       # a self-send is one edge, not two
                        self._succ[s].append(rec.seq)

        self._descendants_cache: dict[int, set[int]] = {}

    # -- queries -------------------------------------------------------------

    def happened_before(self, a: TraceRecord | int, b: TraceRecord | int) -> bool:
        """``True`` iff event ``a`` happened before event ``b`` (strict)."""
        sa = a.seq if isinstance(a, TraceRecord) else a
        sb = b.seq if isinstance(b, TraceRecord) else b
        if sa == sb:
            return False
        desc = self._descendants(sa)
        return sb in desc

    def concurrent(self, a: TraceRecord | int, b: TraceRecord | int) -> bool:
        """Neither happened before the other (and not the same event)."""
        sa = a.seq if isinstance(a, TraceRecord) else a
        sb = b.seq if isinstance(b, TraceRecord) else b
        if sa == sb:
            return False
        return not self.happened_before(sa, sb) and not self.happened_before(sb, sa)

    def edges(self) -> list[tuple[int, int, str]]:
        """Every direct edge as ``(from_seq, to_seq, relation)``, relation
        ``"xo"`` or ``"m"`` (a self-send's single edge counts as ``"m"``)."""
        return [(u, v, "m" if self._send_of.get(v) == u else "xo")
                for u, succ in self._succ.items() for v in succ]

    def _descendants(self, seq: int) -> set[int]:
        got = self._descendants_cache.get(seq)
        if got is None:
            got = set()
            stack = [seq]
            while stack:
                for v in self._succ[stack.pop()]:
                    if v not in got:
                        got.add(v)
                        stack.append(v)
            self._descendants_cache[seq] = got
        return got

    # -- vector clocks ---------------------------------------------------------

    def vector_clocks(self) -> dict[int, VectorClock]:
        """Compute the vector clock of every event (keyed by record seq).

        Standard rules: each event ticks its own component; an ``m`` edge
        carries the sender's clock into the receive's merge.  Events are
        processed in trace order, which respects both xo and m (a message is
        always delivered after it is sent).
        """
        clocks: dict[int, VectorClock] = {}
        current: dict[int, VectorClock] = {
            p: VectorClock(self.n) for p in range(self.n)}
        for rec in self.events:
            vc = current[rec.process].copy()
            # Merge in the sender's clock for deliveries.
            send = self._send_of.get(rec.seq)
            if send is not None:
                vc.merge(clocks[send])
            vc.tick(rec.process)
            clocks[rec.seq] = vc
            current[rec.process] = vc.copy()
        return clocks

    def check_vc_agrees(self, sample: int | None = None,
                        rng=None) -> int:
        """Cross-check VC ordering against reachability on event pairs.

        Returns the number of pairs checked; raises ``AssertionError`` on
        the first disagreement.  ``sample`` bounds the number of pairs (all
        pairs when None) — the property-test suite calls this with modest
        samples to keep runtime sane.
        """
        clocks = self.vector_clocks()
        seqs = [r.seq for r in self.events]
        pairs: list[tuple[int, int]]
        if sample is None or len(seqs) ** 2 <= sample:
            pairs = [(a, b) for a in seqs for b in seqs if a != b]
        else:
            if rng is None:
                import numpy as np
                rng = np.random.default_rng(0)
            idx = rng.integers(0, len(seqs), size=(sample, 2))
            pairs = [(seqs[i], seqs[j]) for i, j in idx if i != j]
        for a, b in pairs:
            by_graph = self.happened_before(a, b)
            by_vc = clocks[a] < clocks[b]
            assert by_graph == by_vc, (
                f"hb oracle mismatch for events {a},{b}: "
                f"graph={by_graph}, vc={by_vc}")
        return len(pairs)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventGraph(events={len(self.events)}, "
                f"edges={sum(map(len, self._succ.values()))})")
