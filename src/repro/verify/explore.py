"""Bounded model checker for the optimistic checkpointing state machine.

Exhaustive breadth-first enumeration of every reachable global state of
``n`` :class:`~repro.core.driver.ProtocolDriver` instances — the same pure
state machine *and* effect interpreter the simulator and the live runtime
execute, on a model runtime (:class:`ModelProcess`) — under *arbitrary*
message interleavings (optionally per-channel FIFO), for small,
fully-bounded configurations:

* at most ``max_csn`` checkpoint rounds (a process may initiate while its
  csn is below the bound);
* at most ``sends_per_process`` application messages per process, to any
  destination, sent at any time;
* at most ``timer_fires_per_csn`` convergence-timer expiries per process
  per round (2 covers the escalation path; more only re-arms).

Within those bounds the exploration is *complete*: every interleaving of
sends, deliveries, timer expiries and initiations is visited (modulo
state deduplication, which is sound because the model is deterministic
per transition).  On every state the checker evaluates the
:data:`repro.causality.properties.STATE_CHECKS` (Theorem 2, Theorem 1's
round prefix, anomaly freedom, sequence discipline, tentSet-knowledge
validity); on every *terminal* state, Theorem 1 convergence.  The §3.5.1
CK_REQ-skip rule is additionally checked at emission time: a forwarded
CK_REQ may only jump over processes the forwarder's ``tentSet`` proves
tentative.

A violation produces a shortest-path counterexample (BFS order), replayed
into a :class:`~repro.des.trace.TraceRecorder` and rendered as text — see
:func:`render_counterexample`.

Fault injection for negative testing: ``drop_ck_req_forwarding=True``
silently discards every CK_REQ send, modelling a broken control plane —
the checker then exhibits a Theorem-1 counterexample (a terminal state
with a forever-tentative process), demonstrating the properties have
teeth.  ``MachineConfig(control_messages=False)`` does the same via a
supported ablation switch.
"""

from __future__ import annotations

import marshal
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .._collector import collector_paused
from ..causality.consistency import CheckpointRecord, chain
from ..causality.properties import STATE_CHECKS, TERMINAL_CHECKS
from ..core.driver import ProtocolDriver, RuntimePort
from ..core.state_machine import MachineConfig, OptimisticStateMachine
from ..core.types import (
    ControlMessage,
    ControlType,
    FinalizedCheckpoint,
    Piggyback,
    Status,
    TentativeCheckpoint,
)
from ..des.trace import TraceRecord, TraceRecorder

# Message tuples in flight.  App messages carry a uid because finalized
# checkpoints record them; the uid is a *canonical* function of
# (sender, per-sender send index) so that interleavings which differ only
# in global send order collapse into one state.  Control messages carry no
# uid — they form a multiset, which merges the (many) states that differ
# only by which of two identical CK_* copies is which:
#   ("app", uid, src, dst, csn, stat_value, tent_tuple)
#   ("ctl", src, dst, ctype_value, csn)
Action = tuple

#: State checks that read the finalized records only: the search runs each
#: once per distinct tuple of records, which thousands of states share.
RECORD_CHECKS = frozenset({"theorem2.consistency", "theorem1.round_prefix"})


def _sorted(items: Iterable[int]) -> tuple[int, ...]:
    """A set as a state-key component: its elements in ascending order."""
    return tuple(sorted(items))


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds and switches for one exploration."""

    n: int = 3
    #: Rounds (checkpoint intervals) to explore: processes may initiate
    #: while their csn is below this.
    max_csn: int = 1
    #: Application messages each process may send (any destination, any time).
    sends_per_process: int = 1
    #: Convergence-timer expiries per process per round (2 = escalation path).
    timer_fires_per_csn: int = 2
    #: Deliver messages per-channel FIFO (True) or fully reordered (False).
    fifo: bool = False
    #: State-machine switches (the E12 ablations are explorable too).
    machine: MachineConfig = field(default_factory=MachineConfig)
    #: Fault injection: silently drop every CK_REQ send (negative testing).
    drop_ck_req_forwarding: bool = False
    #: Safety valve: abort (complete=False) beyond this many states.
    max_states: int = 2_000_000
    #: Stop at the first violation (with counterexample) or keep going.
    max_violations: int = 1


@dataclass(frozen=True)
class Violation:
    """One property violation plus the action path that reaches it."""

    prop: str
    message: str
    path: tuple[Action, ...]

    def render(self, config: ExploreConfig) -> str:
        """Replay and format the counterexample path (one line/step)."""
        return render_counterexample(self, config)


@dataclass
class ExploreResult:
    """Outcome of one bounded exploration."""

    config: ExploreConfig
    states: int = 0
    transitions: int = 0
    terminal_states: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: True when the state space was exhausted within ``max_states`` and
    #: no early stop on violations occurred.
    complete: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and self.complete

    def as_dict(self) -> dict:
        """JSON-ready mapping, counterexample traces pre-rendered."""
        return {
            "states": self.states,
            "transitions": self.transitions,
            "terminal_states": self.terminal_states,
            "complete": self.complete,
            "violations": [
                {"property": v.prop, "message": v.message,
                 "trace": render_counterexample(v, self.config).splitlines()}
                for v in self.violations],
        }

    def render(self) -> str:
        """Human-readable summary incl. any counterexamples."""
        cfg = self.config
        head = (f"model check: n={cfg.n}, rounds={cfg.max_csn}, "
                f"sends/proc={cfg.sends_per_process}, "
                f"timer fires/csn={cfg.timer_fires_per_csn}, "
                f"{'FIFO' if cfg.fifo else 'reordering'} delivery")
        body = (f"  {self.states} states, {self.transitions} transitions, "
                f"{self.terminal_states} terminal, "
                f"{'complete' if self.complete else 'TRUNCATED'}")
        if not self.violations:
            return f"{head}\n{body}\n  all properties hold"
        parts = [head, body]
        for v in self.violations:
            parts.append(f"  VIOLATION [{v.prop}] {v.message}")
            parts.append(render_counterexample(v, self.config))
        return "\n".join(parts)


class ModelProcess(RuntimePort):
    """One process's model runtime: the :class:`~repro.core.driver.RuntimePort`
    its :class:`ProtocolDriver` runs against, so the theorems are checked on
    the interpreter and ``logSet - {M}`` bookkeeping both real runtimes
    execute.  The model keeps what is its own: which tentative checkpoints
    were taken, the cumulative send/receive sets each finalized checkpoint
    records, the timer budget, and control messages awaiting enqueue.  The
    selective log is not part of the state key (no property reads it), so
    a decoded driver restarts it empty.

    Holds no reference back to its driver (:class:`ModelSystem` pairs them
    by index): the search runs with the cyclic GC paused, so a port/driver
    cycle per explored transition would never be freed.
    """

    now = 0.0                                   # the model has no clock

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.took: set[int] = set()
        #: csn -> (cumulative sent uids, cumulative recv uids) at C_{pid,csn}.
        self.finalized: dict[int, tuple[frozenset, frozenset]] = {
            0: (frozenset(), frozenset())}
        self.timer_armed = False
        self.timer_fires = 0                    # expiries in the current round
        #: Control sends of the action in progress, drained by ModelSystem.
        self.outbox: list[tuple[int, ControlMessage]] = []
        self._enc: bytes | None = None          # encode() cache (COW-safe)

    def clone(self) -> "ModelProcess":
        """Cheap deep-enough copy (hot path: one per explored transition);
        a clone exists to be mutated, so it starts with no cached key."""
        new = ModelProcess(self.pid)
        new.took = set(self.took)
        new.finalized = dict(self.finalized)   # values are immutable pairs
        new.timer_armed = self.timer_armed
        new.timer_fires = self.timer_fires
        return new

    # -- RuntimePort ------------------------------------------------------------

    def send_control(self, dst: int, cm: ControlMessage) -> None:
        self.outbox.append((dst, cm))

    def arm_convergence_timer(self) -> None:
        self.timer_armed = True

    def cancel_convergence_timer(self) -> None:
        self.timer_armed = False

    def arm_initiation_timer(self) -> None:
        """Initiation is a nondeterministic action here, not a schedule."""

    def report_anomaly(self, description: str) -> None:
        """The driver's ``anomalies`` tally is all the model reads."""

    def capture_tentative(self, csn: int, digest: int) -> TentativeCheckpoint:
        self.took.add(csn)
        self.timer_fires = 0                    # fresh round, fresh budget
        return TentativeCheckpoint(pid=self.pid, csn=csn, taken_at=0.0,
                                   state_bytes=0, digest=digest)

    def store_finalized(self, fc: FinalizedCheckpoint,
                        exclude_uid: int | None) -> None:
        prev_sent, prev_recv = self.finalized[fc.csn - 1]
        self.finalized[fc.csn] = (prev_sent | fc.new_sent_uids,
                                  prev_recv | fc.new_recv_uids)


class ModelSystem:
    """Global model state: processes + in-flight messages + budgets."""

    def __init__(self, config: ExploreConfig) -> None:
        self.config = config
        self.n = config.n
        self.procs = [ModelProcess(i) for i in range(config.n)]
        self.drivers = [ProtocolDriver(i, config.n, p, config.machine)
                        for i, p in enumerate(self.procs)]
        self.messages: list[tuple] = []
        self.sends_left = [config.sends_per_process] * config.n

    def clone(self) -> "ModelSystem":
        """Copy-on-write snapshot: every action mutates exactly one
        process (broadcasts only append to ``messages``), so processes are
        shared until :meth:`apply` clones the acting one via ``_own``."""
        new = ModelSystem.__new__(ModelSystem)
        new.config = self.config
        new.n = self.n
        new.procs = list(self.procs)
        new.drivers = list(self.drivers)
        new.messages = list(self.messages)
        new.sends_left = list(self.sends_left)
        return new

    def _own(self, i: int) -> tuple[ModelProcess, ProtocolDriver]:
        p = self.procs[i] = self.procs[i].clone()
        d = self.drivers[i] = self.drivers[i].clone(p)
        return p, d

    # -- the view the property checks consume --------------------------------

    def machine(self, i: int) -> OptimisticStateMachine:
        """The live state machine of process ``i``."""
        return self.drivers[i].machine

    def took(self, i: int) -> set[int]:
        """csns for which ``i`` has taken a tentative checkpoint."""
        return self.procs[i].took

    def finalized(self, i: int) -> dict[int, tuple[frozenset, frozenset]]:
        """csn -> cumulative (sent, recv) uid records at ``C_{i,csn}``."""
        return self.procs[i].finalized

    def chain(self, i: int) -> dict[int, CheckpointRecord]:
        """``i``'s records, increments taken between cumulative ones."""
        fin = self.procs[i].finalized
        prev = [(frozenset(), frozenset())] + list(fin.values())
        return chain(i, ((csn, 0.0, 0.0, sent - p[0], recv - p[1], 0, 0)
                         for (csn, (sent, recv)), p in zip(fin.items(), prev)))

    @property
    def endpoints(self) -> dict[int, tuple[int, int]]:
        """uid -> (src, dst) of every received message: a message reaches
        its addressee, so the receiver whose record holds it is ``dst``."""
        return {uid: (self.uid_src(uid), p.pid) for p in self.procs
                for uid in p.finalized[max(p.finalized)][1]}

    def anomalies(self, i: int) -> list[str]:
        """Descriptions of Anomaly effects ``i`` has emitted."""
        return self.drivers[i].anomalies

    def uid_src(self, uid: int) -> int:
        """Sender of app message ``uid`` (uids are canonical:
        ``uid = 1 + src * sends_per_process + per-sender index``)."""
        return (uid - 1) // self.config.sends_per_process

    def _next_app_uid(self, src: int) -> int:
        used = self.config.sends_per_process - self.sends_left[src]
        return 1 + src * self.config.sends_per_process + used

    def app_piggybacks_in_flight(self) -> list[tuple[int, Status, frozenset]]:
        """(csn, stat, tentSet) of every undelivered app message."""
        out = []
        for m in self.messages:
            if m[0] == "app":
                out.append((m[4], Status(m[5]), frozenset(m[6])))
        return out

    # -- canonical encoding (hashable; decode() round-trips) ------------------

    def encode(self) -> tuple:
        """Canonical hashable key; :meth:`decode` round-trips it."""
        # Hot path (once per transition).  Every set is keyed as a sorted
        # tuple: before Python 3.11 marshal writes a frozenset's elements
        # in hash-table order, which depends on how the set was built, so
        # equal states could pack to different keys.  ``finalized`` needs
        # no sort because csns are inserted in ascending order.  Each
        # process slice is marshal-packed where it is built and cached:
        # an action dirties one process, so the others are packed once,
        # not once per transition.
        procs = []
        for p in self.procs:
            e = p._enc
            if e is None:
                d = self.drivers[p.pid]
                m = d.machine
                tent = m.stat is Status.TENTATIVE
                req, end, bgn, suppressed = m.control_state()
                e = p._enc = marshal.dumps((
                    m.csn, tent,
                    _sorted(m.tent_set),
                    (_sorted(req), _sorted(end), _sorted(bgn), suppressed),
                    _sorted(p.took),
                    tuple((csn, (_sorted(sent), _sorted(recv)))
                          for csn, (sent, recv) in p.finalized.items()),
                    # Receive order within a window is immaterial (the
                    # window becomes a frozenset at Finalize) — keying as a
                    # set merges states that differ only in intra-window
                    # delivery order.
                    _sorted(d.window_sent), _sorted(d.window_recv),
                    # An armed timer / spent fire budget is observable only
                    # while TENTATIVE (the next round re-arms and resets),
                    # so normalize both away when NORMAL.
                    p.timer_armed and tent,
                    p.timer_fires if tent else 0,
                    tuple(d.anomalies),
                ))
            procs.append(e)
        # In-flight messages are a multiset: canonical sorted order merges
        # interleavings that differ only in send sequencing.
        return (tuple(procs), tuple(sorted(self.messages)),
                tuple(self.sends_left))

    @classmethod
    def decode(cls, key: tuple, config: ExploreConfig,
               memo: dict | None = None) -> "ModelSystem":
        """Rebuild the system a key encodes.

        ``memo`` (one dict per search) shares the rebuilt process of each
        distinct ``(pid, key slice)`` between systems: ~1M global states are
        the product of a few thousand per-process states, and processes are
        copy-on-write (:meth:`clone`), so sharing them is safe.
        """
        if memo is None:
            memo = {}
        procs_key, messages, sends_left = key
        sys_v = cls.__new__(cls)
        sys_v.config = config
        sys_v.n = config.n
        sys_v.procs = []
        sys_v.drivers = []
        for pid, pk in enumerate(procs_key):
            pair = memo.get((pid, pk))
            if pair is None:
                pair = memo[pid, pk] = cls._decode_process(pid, pk, config)
            sys_v.procs.append(pair[0])
            sys_v.drivers.append(pair[1])
        sys_v.messages = list(messages)
        sys_v.sends_left = list(sends_left)
        return sys_v

    @staticmethod
    def _decode_process(pid: int, pk: bytes, config: ExploreConfig
                        ) -> tuple[ModelProcess, ProtocolDriver]:
        (csn, tent, tent_set, control, took, finalized,
         wsent, wrecv, armed, fires, anomalies) = marshal.loads(pk)
        p = ModelProcess(pid)
        d = ProtocolDriver(pid, config.n, p, config.machine)
        req, end, bgn, suppressed = control
        d.machine.restore(csn, Status.TENTATIVE if tent else Status.NORMAL,
                          set(tent_set), control=(
                              frozenset(req), frozenset(end),
                              frozenset(bgn), suppressed))
        if tent:
            d.current_tentative = p.capture_tentative(csn, 0)
        d.window_sent = list(wsent)
        d.window_recv = list(wrecv)
        d.anomalies = list(anomalies)
        p.took = set(took)
        p.finalized = {csn: (frozenset(sent), frozenset(recv))
                       for csn, (sent, recv) in finalized}
        p.timer_armed = armed
        p.timer_fires = fires
        p._enc = pk      # decoded processes re-encode to their key slice
        return p, d

    # -- transitions ----------------------------------------------------------

    def enabled_actions(self) -> list[Action]:
        """Every transition possible from this state (empty = terminal)."""
        cfg = self.config
        actions: list[Action] = []
        for i, p in enumerate(self.procs):
            m = self.drivers[i].machine
            if m.stat is Status.NORMAL and m.csn < cfg.max_csn:
                actions.append(("initiate", i))
            if self.sends_left[i] > 0:
                for j in range(self.n):
                    if j != i:
                        actions.append(("send", i, j))
            if (p.timer_armed and m.stat is Status.TENTATIVE
                    and p.timer_fires < cfg.timer_fires_per_csn):
                actions.append(("timer", i))
        # App deliveries are per-uid; control deliveries are per distinct
        # (src, dst, type, csn) tuple — identical copies are interchangeable.
        app_seen: dict[tuple[int, int], int] = {}
        ctl_seen: set[tuple] = set()
        for msg in self.messages:
            if msg[0] == "app":
                chan = (msg[2], msg[3])
                if cfg.fifo:
                    # Per-sender uids increase with send order, so the
                    # channel's FIFO head is its minimum uid.  (Control
                    # messages stay unordered even under fifo=True: the
                    # control plane must tolerate reordering regardless.)
                    cur = app_seen.get(chan)
                    app_seen[chan] = msg[1] if cur is None else min(cur, msg[1])
                else:
                    actions.append(("deliver_app", msg[1]))
            elif msg not in ctl_seen:
                ctl_seen.add(msg)
                actions.append(("deliver_ctl",) + msg[1:])
        if cfg.fifo:
            actions.extend(("deliver_app", uid)
                           for _, uid in sorted(app_seen.items()))
        return actions

    def apply(self, action: Action) -> list[tuple[str, str]]:
        """Execute one action in place; returns step-level violations."""
        kind = action[0]
        if kind == "send":
            _, i, j = action
            _, d = self._own(i)
            pb = d.machine.piggyback()
            uid = self._next_app_uid(i)
            self.sends_left[i] -= 1
            d.app_sent(uid, 0)
            self.messages.append(
                ("app", uid, i, j, pb.csn, pb.stat.value,
                 tuple(sorted(pb.tent_set))))
            return []
        if kind == "initiate":
            p, d = self._own(action[1])
            d.initiate()
        elif kind == "timer":
            p, d = self._own(action[1])
            p.timer_fires += 1
            d.on_timer()
        elif kind == "deliver_app":
            uid = action[1]
            idx = next(k for k, m in enumerate(self.messages)
                       if m[0] == "app" and m[1] == uid)
            _, uid, src, dst, csn, stat, tent = self.messages.pop(idx)
            p, d = self._own(dst)
            d.app_received(Piggyback(csn=csn, stat=Status(stat),
                                     tent_set=frozenset(tent)), uid, 0)
        elif kind == "deliver_ctl":
            msg = ("ctl",) + action[1:]
            self.messages.remove(msg)
            _, src, dst, ctype, csn = msg
            p, d = self._own(dst)
            d.on_control(ControlMessage(ControlType(ctype), csn), src)
        else:  # pragma: no cover
            raise ValueError(f"unknown action {action!r}")
        return self._drain(p) if p.outbox else []

    def _drain(self, p: ModelProcess) -> list[tuple[str, str]]:
        """Put the acting process's control sends in flight, checking the
        CK_REQ-skip rule (and injecting the CK_REQ-drop fault) per send."""
        step_violations: list[tuple[str, str]] = []
        for dst, cm in p.outbox:
            step_violations.extend(self._check_ck_req_skip(p.pid, dst, cm))
            if (self.config.drop_ck_req_forwarding
                    and cm.ctype is ControlType.CK_REQ):
                continue
            self.messages.append(("ctl", p.pid, dst, cm.ctype.value, cm.csn))
        p.outbox.clear()
        return step_violations

    def _check_ck_req_skip(self, i: int, dst: int,
                           cm: ControlMessage) -> list[tuple[str, str]]:
        """§3.5.1 Case (2) emission-time soundness: a forwarded CK_REQ may
        only jump over processes the forwarder *knows* to be tentative."""
        m = self.drivers[i].machine
        if (cm.ctype is not ControlType.CK_REQ
                or m.stat is not Status.TENTATIVE
                or not m.config.skip_ck_req):
            return []
        skipped = (range(i + 1, dst) if dst > i
                   else range(i + 1, self.n))   # wrapped to COORDINATOR
        bad = [k for k in skipped if k not in m.tent_set]
        if not bad:
            return []
        return [("optimization.ck_req_skip",
                 f"P{i} forwarded CK_REQ(csn={cm.csn}) to P{dst}, "
                 f"skipping {bad} without tentSet evidence "
                 f"(tentSet={sorted(m.tent_set)})")]


# --------------------------------------------------------------------------
# the BFS driver
# --------------------------------------------------------------------------


def explore(config: ExploreConfig | None = None) -> ExploreResult:
    """Exhaustively enumerate the bounded state space; check all properties."""
    cfg = config if config is not None else ExploreConfig()
    result = ExploreResult(config=cfg)
    # Keys are marshal-packed encodings: bytes cache their hash, compare
    # by memcmp, and take a fraction of the nested tuples' memory — all of
    # which the visited-set probes (millions for n=3) feel directly.
    root = marshal.dumps(ModelSystem(cfg).encode())
    # parent pointers reconstruct shortest counterexample paths; the dict
    # doubles as the visited set (one hash per dedup probe, not two).
    parents: dict[bytes, tuple[bytes | None, Action | None]] = {
        root: (None, None)}
    queue: deque[bytes] = deque([root])

    def path_to(key: bytes, extra: Action | None = None) -> tuple[Action, ...]:
        path: list[Action] = [] if extra is None else [extra]
        while True:
            parent, action = parents[key]
            if parent is None:
                break
            path.append(action)
            key = parent
        return tuple(reversed(path))

    def record(prop: str, message: str, path: tuple[Action, ...]) -> bool:
        """Append a violation; True when the violation budget is spent."""
        result.violations.append(Violation(prop=prop, message=message,
                                           path=path))
        return len(result.violations) >= cfg.max_violations

    # The search allocates millions of long-lived containers and no cycles;
    # pausing the cyclic GC avoids repeated full-heap traversals.
    with collector_paused():
        _search(cfg, result, parents, queue, path_to, record)
    return result


def _search(cfg, result, parents, queue, path_to, record) -> None:
    memo: dict = {}
    by_records: dict[tuple, dict[str, list[str]]] = {}
    while queue:
        key = queue.popleft()
        result.states += 1
        if result.states > cfg.max_states:
            result.complete = False
            break
        sys_v = ModelSystem.decode(marshal.loads(key), cfg, memo)
        stop = False
        records = tuple([tuple(p.finalized.items()) for p in sys_v.procs])
        known = by_records.get(records)
        if known is None:
            known = by_records[records] = {
                p.name: p.check(sys_v) for p in STATE_CHECKS
                if p.name in RECORD_CHECKS}
        for prop in STATE_CHECKS:
            found = known.get(prop.name)
            for message in (prop.check(sys_v) if found is None else found):
                stop = record(prop.name, message, path_to(key))
                if stop:
                    break
            if stop:
                break
        if stop:
            result.complete = False
            break
        actions = sys_v.enabled_actions()
        if not actions:
            result.terminal_states += 1
            for prop in TERMINAL_CHECKS:
                for message in prop.check(sys_v):
                    stop = record(prop.name, message, path_to(key))
                    if stop:
                        break
                if stop:
                    break
            if stop:
                result.complete = False
                break
            continue
        for action in actions:
            child = sys_v.clone()
            for prop, message in child.apply(action):
                stop = record(prop, message, path_to(key, action))
                if stop:
                    break
            if stop:
                break
            result.transitions += 1
            ckey = marshal.dumps(child.encode())
            if ckey not in parents:
                parents[ckey] = (key, action)
                queue.append(ckey)
        if stop:
            result.complete = False
            break


# --------------------------------------------------------------------------
# counterexample rendering (via repro.des.trace)
# --------------------------------------------------------------------------


def counterexample_trace(violation: Violation,
                         config: ExploreConfig) -> TraceRecorder:
    """Replay a violation's action path into a :class:`TraceRecorder`.

    Each step becomes one ``mc.*`` record at integer "time" (the step
    index), so every trace consumer — filtering, happened-before replay,
    the space-time renderer — works on counterexamples too.
    """
    trace = TraceRecorder()
    sys_v = ModelSystem(config)
    for step, action in enumerate(violation.path):
        t = float(step)
        kind = action[0]
        if kind == "initiate":
            i = action[1]
            trace.record(t, "mc.initiate", i,
                         csn=sys_v.machine(i).csn + 1)
        elif kind == "send":
            _, i, j = action
            pb = sys_v.machine(i).piggyback()
            trace.record(t, "mc.app_send", i, dst=j,
                         uid=sys_v._next_app_uid(i), csn=pb.csn,
                         stat=pb.stat.value, tent_set=sorted(pb.tent_set))
        elif kind == "timer":
            i = action[1]
            trace.record(t, "mc.timer", i, csn=sys_v.machine(i).csn)
        elif kind == "deliver_app":
            uid = action[1]
            msg = next(m for m in sys_v.messages
                       if m[0] == "app" and m[1] == uid)
            trace.record(t, "mc.deliver.app", msg[3], uid=uid,
                         src=msg[2], csn=msg[4], stat=msg[5],
                         tent_set=list(msg[6]))
        elif kind == "deliver_ctl":
            _, src, dst, ctype, csn = action
            trace.record(t, "mc.deliver.ctl", dst, src=src, ctype=ctype,
                         csn=csn)
        sys_v.apply(action)
    trace.record(float(len(violation.path)), "mc.violation", -1,
                 property=violation.prop, message=violation.message)
    return trace


def _fmt_record(rec: TraceRecord) -> str:
    who = f"P{rec.process}" if rec.process >= 0 else "--"
    data = ", ".join(f"{k}={v}" for k, v in rec.data.items())
    return f"  [{rec.time:>4.0f}] {who:<4} {rec.kind:<16} {data}"


def render_counterexample(violation: Violation,
                          config: ExploreConfig) -> str:
    """Human-readable counterexample: one line per replayed step."""
    trace = counterexample_trace(violation, config)
    lines = [f"counterexample ({len(violation.path)} steps) for "
             f"[{violation.prop}]:"]
    lines.extend(_fmt_record(rec) for rec in trace)
    return "\n".join(lines)
