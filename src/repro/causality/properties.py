"""The one property library: Theorems 1–2 as checks over a system view.

A check is a pure function of a :class:`SystemView` that returns one
message per violation.  The model checker runs them on every reachable
state (``repro.verify.explore.ModelSystem``), the DES fault-run judge and
the live journal replay on a :class:`Snapshot` of a finished run.
Theorem 2 is one :meth:`~.consistency.ConsistencyVerifier.verify_all`
over the :func:`~.consistency.complete_cuts` of the view's chained
records (``find_orphans`` is its reference); Theorem 1 is
:func:`check_round_prefix` at any instant, plus :func:`check_all_normal`
and :func:`check_rounds_agree` on terminal states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
)

from ..core.types import Status
from .consistency import (
    CheckpointRecord,
    ConsistencyVerifier,
    Orphan,
    complete_cuts,
)


class ProcessState(Protocol):
    """A process's state; ``tent_set`` is read outside JOURNAL_CHECKS only."""

    csn: int
    stat: Status
    tent_set: AbstractSet[int]


class SystemView(Protocol):
    """One global state of ``n`` processes, as the checks read it."""

    n: int
    #: uid -> (src, dst) of every application message a record names.
    endpoints: Mapping[int, tuple[int, int]]

    def machine(self, i: int) -> ProcessState:
        """``i``'s csn, status and tentSet."""

    def took(self, i: int) -> AbstractSet[int]:
        """csns ``i`` took a tentative checkpoint for."""

    def finalized(self, i: int) -> Collection[int]:
        """csns of ``i``'s finalized checkpoints, 0 included."""

    def chain(self, i: int) -> Mapping[int, CheckpointRecord]:
        """``i``'s records, csn -> record, built by ``consistency.chain``."""

    def anomalies(self, i: int) -> Sequence[str]:
        """Descriptions of the Anomaly effects ``i`` emitted."""

    def app_piggybacks_in_flight(
            self) -> Iterable[tuple[int, Status, AbstractSet[int]]]:
        """(csn, stat, tentSet) of every undelivered application message."""


class Property(NamedTuple):
    """A named check; ``kind`` tags its violations in a fault-run verdict."""

    name: str
    check: Callable[[Any], list[str]]
    kind: str


def check_anomaly_free(view: SystemView) -> list[str]:
    """No Anomaly effect occurred: the impossibility proofs hold."""
    return [f"P{i} protocol anomaly: {desc}"
            for i in range(view.n) for desc in view.anomalies(i)]


def check_sequence_discipline(view: SystemView) -> list[str]:
    """``took_i`` is ``{1..csn_i}`` and the finalized set ``{0..csn_i}``
    minus the open tentative: csns dense, one checkpoint open at most."""
    out = []
    for i in range(view.n):
        m = view.machine(i)
        took = view.took(i)
        if took != set(range(1, m.csn + 1)):
            out.append(f"P{i} took {sorted(took)} but csn={m.csn} "
                       f"(expected dense 1..{m.csn})")
        fin = set(view.finalized(i))
        want = set(range(0, m.csn + (0 if m.stat is Status.TENTATIVE else 1)))
        if fin != want:
            out.append(f"P{i} finalized {sorted(fin)}, expected "
                       f"{sorted(want)} (csn={m.csn}, {m.stat.value})")
    return out


def check_knowledge_validity(view: SystemView) -> list[str]:
    """§3.5.1 soundness: a pid in a ``tentSet`` (a machine's or an in-flight
    piggyback's) took that checkpoint; a process is in its own exactly while
    tentative."""
    out = []
    for i in range(view.n):
        m = view.machine(i)
        if m.stat is not Status.TENTATIVE:
            if m.tent_set:
                out.append(f"P{i} normal with non-empty tentSet "
                           f"{sorted(m.tent_set)}")
            continue
        if i not in m.tent_set:
            out.append(f"P{i} tentative but not in own tentSet "
                       f"{sorted(m.tent_set)}")
        for j in sorted(m.tent_set):
            if m.csn not in view.took(j):
                out.append(
                    f"P{i} believes P{j} took CT_{m.csn} but P{j} never did "
                    f"(took={sorted(view.took(j))})")
    for pb_csn, pb_stat, pb_tent in view.app_piggybacks_in_flight():
        if pb_stat is not Status.TENTATIVE:
            continue
        for j in sorted(pb_tent):
            if pb_csn not in view.took(j):
                out.append(f"in-flight piggyback claims P{j} took "
                           f"CT_{pb_csn} but P{j} never did")
    return out


def cuts(view: SystemView) -> dict[int, dict[int, CheckpointRecord]]:
    """The view's complete global checkpoints ``S_k``, ascending."""
    return complete_cuts({i: view.chain(i) for i in range(view.n)})


def orphans(view: SystemView,
            by_seq: dict[int, dict[int, CheckpointRecord]] | None = None
            ) -> dict[int, list[Orphan]]:
    """Theorem 2's verdict, seq -> orphans, over ``by_seq`` (default:
    :func:`cuts`); a receipt of a uid ``endpoints`` lacks raises KeyError."""
    if by_seq is None:
        by_seq = cuts(view)
    return ConsistencyVerifier(endpoints=view.endpoints).verify_all(by_seq)


def check_consistency(view: SystemView) -> list[str]:
    """Theorem 2: every complete S_k is orphan-free (Figure 1's defect)."""
    return [f"S_{seq} inconsistent: C_{{{o.dst},{seq}}} records receipt "
            f"of message #{o.uid} but C_{{{o.src},{seq}}} does not record "
            f"its send (orphan)"
            for seq, found in orphans(view).items() for o in found]


def check_round_prefix(view: SystemView) -> list[str]:
    """Theorem 1 at any instant: if some process finalized round ``m``,
    every process has finalized every round below ``m``."""
    fins = [view.finalized(i) for i in range(view.n)]
    top = max([max(fin, default=-1) for fin in fins])
    out = []
    for i, fin in enumerate(fins):
        # csns lie in 0..top, so a process holding top + 1 of them holds all.
        missing = [k for k in range(top) if k not in fin] \
            if len(fin) <= top else []
        if missing:
            out.append(f"round {top} is finalized but P{i} never "
                       f"finalized rounds {missing}")
    return out


def check_all_normal(view: SystemView) -> list[str]:
    """Theorem 1 on a terminal state: no process is left tentative (with
    nothing left to happen, an open round would never close)."""
    out = []
    for i in range(view.n):
        m = view.machine(i)
        if m.stat is not Status.NORMAL:
            out.append(f"terminal state with P{i} still tentative at "
                       f"csn={m.csn}, tentSet={sorted(m.tent_set)}")
    return out


def check_rounds_agree(view: SystemView) -> list[str]:
    """Theorem 1 on a terminal state: same csns, same finalized sets, and
    every round taken anywhere finalized everywhere."""
    out = []
    csns = {view.machine(i).csn for i in range(view.n)}
    if len(csns) > 1:
        out.append(f"terminal state with diverged csns {sorted(csns)}")
    fin_sets = {i: frozenset(view.finalized(i)) for i in range(view.n)}
    if len(set(fin_sets.values())) > 1:
        out.append("terminal state with diverged finalized sets "
                   + str({i: sorted(s) for i, s in fin_sets.items()}))
    for k in sorted({k for i in range(view.n) for k in view.took(i)}):
        for i in range(view.n):
            if k not in fin_sets[i]:
                out.append(f"round {k} was initiated but P{i} never "
                           f"finalized C_{{{i},{k}}}")
    return out


_ANOMALY = Property("anomaly.free", check_anomaly_free, "anomaly")
_SEQUENCE = Property("sequence.discipline", check_sequence_discipline,
                     "sequence")
_PREFIX = Property("theorem1.round_prefix", check_round_prefix,
                   "round-prefix")
#: Checks that hold of every state.
STATE_CHECKS: tuple[Property, ...] = (
    _ANOMALY, _SEQUENCE,
    Property("knowledge.validity(optimization soundness)",
             check_knowledge_validity, "knowledge"),
    Property("theorem2.consistency", check_consistency, "orphans"),
    _PREFIX)
#: The state checks besides Theorem 2 that a journal, which keeps no
#: tentSet and no message in flight, can decide.
JOURNAL_CHECKS: tuple[Property, ...] = (_ANOMALY, _SEQUENCE, _PREFIX)
#: Checks of terminal (quiescent) states only.
TERMINAL_CHECKS: tuple[Property, ...] = (
    Property("theorem1.convergence", check_all_normal, "stuck-status"),
    Property("theorem1.convergence", check_rounds_agree, "divergence"))


def violations(view: SystemView, checks: Iterable[Property]
               ) -> list[tuple[Property, list[str]]]:
    """(property, messages) for each of ``checks`` that ``view`` violates."""
    return [(prop, found) for prop in checks if (found := prop.check(view))]


@dataclass
class Snapshot(SystemView):
    """Per-process tables with nothing in flight: a finished DES run
    (:meth:`of_runtime`) or a replayed live journal (``conformance``)."""

    n: int
    machines: list[ProcessState]
    tooks: list[AbstractSet[int]]
    fins: list[Collection[int]]
    chains: list[Mapping[int, CheckpointRecord]]
    anomaly_lists: list[Sequence[str]]
    endpoints: Mapping[int, tuple[int, int]]

    def machine(self, i: int) -> ProcessState:
        return self.machines[i]

    def took(self, i: int) -> AbstractSet[int]:
        return self.tooks[i]

    def finalized(self, i: int) -> Collection[int]:
        return self.fins[i]

    def chain(self, i: int) -> Mapping[int, CheckpointRecord]:
        return self.chains[i]

    def anomalies(self, i: int) -> Sequence[str]:
        return self.anomaly_lists[i]

    def app_piggybacks_in_flight(self) -> tuple[()]:
        return ()

    @classmethod
    def of_runtime(cls, runtime: Any,
                   endpoints: Mapping[int, tuple[int, int]]) -> Snapshot:
        """A finished DES run (an ``OptimisticRuntime``)."""
        hosts = [runtime.hosts[i] for i in range(runtime.n)]
        return cls(runtime.n, [h.machine for h in hosts],
                   [h.tentatives.keys() for h in hosts],
                   [h.finalized for h in hosts],
                   [h.checkpoint_records() for h in hosts],
                   [h.anomalies for h in hosts], endpoints)
