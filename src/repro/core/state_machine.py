"""The protocol state machine — Figures 3 and 4 of the paper, verbatim.

Pure logic: every handler consumes an input (an application-message
piggyback, a control message, a timer expiry, an initiation request) and
returns a list of :mod:`~repro.core.effects` commands for the
:class:`~repro.core.driver.ProtocolDriver` to execute.  No simulator,
network or storage access happens here.

Each branch is annotated with the paper case it implements (§3.4.3's
Cases 1–4 with sub-cases, §3.5.1's control-message rules).  The two
§3.5.1 optimizations are individually switchable so the ablation
experiment (E12) can measure their value:

* ``suppress_ck_bgn`` — Case (1): a timed-out process stays silent when a
  lower-id process is known (via ``tentSet``) to have taken the tentative
  checkpoint, because that process (or a lower one) will notify ``P_0``.
* ``skip_ck_req`` — Case (2): when forwarding ``CK_REQ``, jump over the
  contiguous run of processes already known tentative.

Deviations from the paper's pseudocode (documented, switchable):

* **Timer re-arm with escalation.**  The paper's Case-(1) optimization has
  a liveness hole it acknowledges (a suppressed process may never learn of
  finalization if the lower-id process finalized and went silent); the
  paper's fix is "P_0 always broadcasts CK_END when it finalizes"
  (``p0_broadcast_on_finalize``, default on, faithful).  As a belt-and-
  braces measure the timer also re-arms after a suppressed expiry and
  *escalates* (ignores suppression) on the second consecutive expiry for
  the same csn — with the broadcast fix on, escalation virtually never
  triggers, and turning the broadcast off (ablation) remains live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .effects import (
    Anomaly,
    ArmTimer,
    BroadcastControl,
    CancelTimer,
    Effect,
    Finalize,
    SendControl,
    TakeTentative,
)
from .types import ControlMessage, ControlType, Piggyback, Status

COORDINATOR = 0  # the paper's pre-specified process P_0

#: Shared "no effects" result for the hot no-op receive cases (Cases 1,
#: 2(a), 3(a), 4(a) are the overwhelming majority of receives).  Callers
#: only iterate effect lists — never mutate them — so one shared empty
#: list avoids an allocation per delivered message.
_NO_EFFECTS: list[Effect] = []

# Hoisted enum members: the per-message dispatch tests these constantly and
# a module global loads cheaper than Status.<member>.
_NORMAL = Status.NORMAL
_TENTATIVE = Status.TENTATIVE

#: :meth:`OptimisticStateMachine.control_state` — the csns for which
#: CK_REQ / CK_END / CK_BGN went out, and the last suppressed csn.
ControlState = tuple[frozenset[int], frozenset[int], frozenset[int],
                     int | None]


def receive_case(mstat: Status, pstat: Status, pcsn: int, mcsn: int) -> str:
    """§3.4.3 case label for an app receive, from the receiver's view.

    The label of the branch :meth:`OptimisticStateMachine.on_app_receive`
    takes for a machine at ``(mstat, mcsn)`` receiving a piggyback
    ``(pstat, pcsn)``, computed without touching any state: ``1``
    normal/normal, ``2a``–``2d`` tentative/tentative, ``3a``–``3c``
    tentative/normal, ``4a``–``4c`` normal/tentative; ``1x`` is the
    normal/normal future-csn anomaly.
    """
    if mstat is _NORMAL:
        if pstat is _TENTATIVE:
            if pcsn == mcsn + 1:
                return "4b"
            if pcsn > mcsn + 1:
                return "4c"
            return "4a"
        return "1" if pcsn <= mcsn else "1x"
    if pstat is _NORMAL:
        if pcsn == mcsn:
            return "3b"
        if pcsn > mcsn:
            return "3c"
        return "3a"
    if pcsn == mcsn:
        return "2b"
    if pcsn == mcsn + 1:
        return "2c"
    if pcsn > mcsn + 1:
        return "2d"
    return "2a"


@dataclass
class MachineConfig:
    """Switches for the state machine's optional behaviours."""

    #: Enable the §3.5.1 control-message plane at all.  With ``False`` the
    #: machine is exactly the *basic* algorithm of Figure 3 (timer expiries
    #: are ignored) — may not converge, which E2/E9 demonstrate.
    control_messages: bool = True
    #: §3.5.1 Case (1): suppress redundant CK_BGN when a lower id is tentative.
    suppress_ck_bgn: bool = True
    #: §3.5.1 Case (2): skip known-tentative processes when forwarding CK_REQ.
    skip_ck_req: bool = True
    #: The paper's fix for the Case-(1) liveness hole: P_0 broadcasts CK_END
    #: whenever it finalizes a checkpoint.
    p0_broadcast_on_finalize: bool = True
    #: Re-arm + escalate timers (see module docstring).
    timer_escalation: bool = True
    #: Fast path the paper's pseudocode *omits*: in Cases 4(b)/2(c) the
    #: tentSet merged right after taking a tentative checkpoint may already
    #: equal allPSet (the sender knew everyone else), in which case the
    #: process could finalize immediately instead of waiting for the next
    #: message or the timer.  Off by default for pseudocode fidelity; the
    #: E12 ablations measure what it is worth.
    finalize_on_complete_knowledge: bool = False


class OptimisticStateMachine:
    """Per-process protocol state (§3.3) and transition rules (§3.4, §3.5)."""

    def __init__(self, pid: int, n: int,
                 config: MachineConfig | None = None) -> None:
        if not (0 <= pid < n):
            raise ValueError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n
        self.config = config if config is not None else MachineConfig()
        # §3.3 data structures -------------------------------------------------
        self.csn = 0                       # csn_i  (initial checkpoint = 0)
        self.stat = Status.NORMAL          # stat_i
        self.tent_set: set[int] = set()    # tentSet_i (empty while normal)
        # control-plane bookkeeping -------------------------------------------
        self._ck_req_sent: set[int] = set()   # csns for which CK_REQ went out
        self._ck_end_sent: set[int] = set()   # csns for which CK_END broadcast
        self._ck_bgn_sent: set[int] = set()   # csns for which CK_BGN went out
        self._suppressed_csn: int | None = None  # last csn whose CK_BGN was
        #                                           suppressed (escalation)
        # Interned piggyback: (csn, stat, tentSet) only changes on protocol
        # transitions, so the frozen triple is built once per transition and
        # reused by every send in between.  Invalidated (set to None) at
        # every mutation of csn/stat/tent_set.
        self._pb: Piggyback | None = None

    # -- inspection ----------------------------------------------------------

    @property
    def tentative(self) -> bool:
        return self.stat is Status.TENTATIVE

    def piggyback(self) -> Piggyback:
        """Current ``(csn, stat, tentSet)`` for outgoing app messages.

        Interned: repeated calls between protocol transitions return the
        *same* (immutable) instance instead of re-freezing ``tent_set``
        per send.
        """
        pb = self._pb
        if pb is None:
            self._pb = pb = Piggyback(csn=self.csn, stat=self.stat,
                                      tent_set=frozenset(self.tent_set))
        return pb

    def _merge_tent_set(self, other: frozenset[int]) -> None:
        """Absorb a peer's tentSet knowledge; invalidates the interned
        piggyback only when the merge actually added members (repeated
        piggybacks from the same neighbourhood usually add nothing)."""
        ts = self.tent_set
        before = len(ts)
        ts |= other
        if len(ts) != before:
            self._pb = None

    def restore(self, csn: int, stat: Status, tent_set: set[int],
                control: ControlState | None = None) -> None:
        """Overwrite the §3.3 triple in one step (state import).

        External callers (the model checker's state explorer, the live
        runtime's restart) must use this instead of assigning the fields
        directly so the interned piggyback is invalidated.  ``control``
        also overwrites the control-plane bookkeeping with a
        :meth:`control_state` snapshot.
        """
        self.csn = csn
        self.stat = stat
        self.tent_set = tent_set
        self._pb = None
        if control is not None:
            req, end, bgn, self._suppressed_csn = control
            self._ck_req_sent = set(req)
            self._ck_end_sent = set(end)
            self._ck_bgn_sent = set(bgn)

    def control_state(self) -> ControlState:
        """Hashable snapshot of the control-plane bookkeeping."""
        return (frozenset(self._ck_req_sent), frozenset(self._ck_end_sent),
                frozenset(self._ck_bgn_sent), self._suppressed_csn)

    def rollback(self, csn: int) -> None:
        """Back to "just finalized ``csn``" (rollback recovery): normal,
        empty tentSet, and no memory of control waves for later rounds."""
        self.restore(csn, _NORMAL, set())
        self._suppressed_csn = None
        self._ck_req_sent = {c for c in self._ck_req_sent if c <= csn}
        self._ck_end_sent = {c for c in self._ck_end_sent if c <= csn}
        self._ck_bgn_sent = {c for c in self._ck_bgn_sent if c <= csn}

    def clone(self) -> "OptimisticStateMachine":
        """Independent copy (the model checker takes one per transition)."""
        new = OptimisticStateMachine(self.pid, self.n, self.config)
        new.restore(self.csn, self.stat, set(self.tent_set),
                    control=self.control_state())
        return new

    # -- §3.4.1: initiation ----------------------------------------------------

    def initiate(self) -> list[Effect]:
        """Start a new consistent global checkpoint (scheduled basic ckpt).

        Returns ``[]`` when the process is still tentative — the paper
        forbids a new tentative checkpoint before the current one is
        finalized, so a scheduled initiation that lands inside an unfinished
        round is simply skipped (this is also why the protocol never takes
        more than one checkpoint per interval).
        """
        if self.tentative:
            return _NO_EFFECTS
        return self._take_tentative()

    def _take_tentative(self) -> list[Effect]:
        """Procedure takeTentativeCheckpoint(i) of Figure 3."""
        self.csn += 1
        self.stat = Status.TENTATIVE
        self.tent_set = {self.pid}
        self._pb = None
        effects: list[Effect] = [TakeTentative(csn=self.csn)]
        if self.config.control_messages:
            effects.append(ArmTimer(csn=self.csn))
        return effects

    def _maybe_fast_finalize(self) -> list[Effect]:
        """Optional fast path after a take-and-merge (see MachineConfig)."""
        if (self.config.finalize_on_complete_knowledge
                and self.tentative and len(self.tent_set) == self.n):
            return self._finalize(exclude_uid=None,
                                  reason="piggyback.fastpath")
        return _NO_EFFECTS

    def _finalize(self, exclude_uid: int | None, reason: str) -> list[Effect]:
        """§3.4.4: flush CT + log, return to normal, clear tentSet."""
        csn = self.csn
        self.stat = Status.NORMAL
        self.tent_set = set()
        self._pb = None
        self._suppressed_csn = None
        effects: list[Effect] = [
            Finalize(csn=csn, exclude_uid=exclude_uid, reason=reason),
            CancelTimer(),
        ]
        # The paper's fix for the CK_BGN-suppression liveness hole: P_0
        # announces every finalization so suppressed processes always learn.
        if (self.config.control_messages
                and self.config.p0_broadcast_on_finalize
                and self.pid == COORDINATOR
                and csn not in self._ck_end_sent):
            self._ck_end_sent.add(csn)
            effects.append(BroadcastControl(ctype=ControlType.CK_END, csn=csn))
        return effects

    # -- §3.4.3: receiving an application message ------------------------------

    def on_app_receive(self, pb: Piggyback, uid: int) -> list[Effect]:
        """Apply the Case 1–4 analysis to a processed application message.

        ``uid`` identifies the message for the ``logSet - {M}`` exclusion.
        The *host* has already (a) delivered the payload to the application
        and (b) appended the message to the current log window — both per
        the paper's "process the message first" rule.

        The no-effect cases — the overwhelming majority of receives, inside
        and outside checkpoint rounds — exit first with the shared
        ``_NO_EFFECTS``; :func:`receive_case` labels the same branches.
        """
        csn = self.csn
        pcsn = pb.csn
        if self.stat is _NORMAL:
            if pcsn <= csn:
                # Cases 1 / 4(a): stale or current piggyback ⇒ nothing.
                return _NO_EFFECTS
            if pb.stat is _TENTATIVE:
                if pcsn == csn + 1:
                    # Case 4(b): first news of a new initiation — take a
                    # tentative checkpoint and absorb the sender's knowledge.
                    effects = self._take_tentative()
                    self._merge_tent_set(pb.tent_set)
                    effects += self._maybe_fast_finalize()
                    return effects
                # Case 4(c): proven impossible in a failure-free run.
                return [Anomaly(
                    f"P{self.pid} normal at csn={csn} received "
                    f"tentative pb with csn={pcsn}")]
            # Peer finalized a checkpoint we never took — impossible.
            return [Anomaly(
                f"P{self.pid} normal at csn={csn} received "
                f"normal pb with csn={pcsn}")]
        # stat_i == tentative; host already logged the message.
        if pcsn < csn:
            # Cases 2(a) / 3(a): stale piggyback ⇒ nothing.
            return _NO_EFFECTS
        if pb.stat is _TENTATIVE:
            if pcsn == csn:
                # Case 2(b): merge knowledge; finalize if complete.  The
                # completeness check must not be gated on the merge having
                # changed anything: with finalize_on_complete_knowledge off,
                # a 4(b)/2(c) merge can leave tentSet complete *without*
                # finalizing, and the next same-csn receive must finalize.
                self._merge_tent_set(pb.tent_set)
                if len(self.tent_set) != self.n:
                    return _NO_EFFECTS
                return self._finalize(exclude_uid=None,
                                      reason="piggyback.allset")
            if pcsn == csn + 1:
                # Case 2(c): sender finalized csn and moved on ⇒ finalize
                # ours (excluding M), then join the new initiation.
                effects = self._finalize(exclude_uid=uid,
                                         reason="piggyback.next_csn")
                effects += self._take_tentative()
                self._merge_tent_set(pb.tent_set)
                effects += self._maybe_fast_finalize()
                return effects
            # Case 2(d): impossible.
            return [Anomaly(
                f"P{self.pid} tentative at csn={csn} received "
                f"tentative pb with csn={pcsn}")]
        if pcsn == csn:
            # Case 3(b): sender finalized C_{j,csn} ⇒ everyone took the
            # tentative ckpt ⇒ finalize, excluding M itself.
            return self._finalize(exclude_uid=uid,
                                  reason="piggyback.peer_normal")
        # Case 3(c): impossible.
        return [Anomaly(
            f"P{self.pid} tentative at csn={csn} received "
            f"normal pb with csn={pcsn}")]

    # -- §3.5.1: the convergence timer ----------------------------------------

    def on_timer(self) -> list[Effect]:
        """Timer for the current tentative checkpoint expired (Figure 4)."""
        if not self.config.control_messages or not self.tentative:
            return []
        effects: list[Effect] = []
        if self.pid == COORDINATOR:
            # P_0 initiates the CK_REQ wave directly.
            if self.csn not in self._ck_req_sent:
                effects += self._forward_ck_req()
        else:
            suppress = (
                self.config.suppress_ck_bgn
                and any(k < self.pid for k in self.tent_set)
                # Escalation: a second expiry for the same csn overrides
                # suppression (liveness belt-and-braces; see module doc).
                and not (self.config.timer_escalation
                         and self._suppressed_csn == self.csn)
            )
            if suppress:
                self._suppressed_csn = self.csn
            elif self.csn not in self._ck_bgn_sent:
                self._ck_bgn_sent.add(self.csn)
                effects.append(SendControl(dst=COORDINATOR,
                                           ctype=ControlType.CK_BGN,
                                           csn=self.csn))
        if self.config.timer_escalation:
            effects.append(ArmTimer(csn=self.csn))
        return effects

    # -- §3.5.1: forwarding CK_REQ ----------------------------------------------

    def _forward_ck_req(self) -> list[Effect]:
        """Procedure forwardCheckpointRequest(P_i, CM) of Figure 4.

        Finds the next process that (to our knowledge) has not yet taken
        the tentative checkpoint; wraps to P_0 when all higher ids have.
        With ``skip_ck_req`` off, plainly forwards to ``(pid+1) mod n``.
        A process that has already *finalized* forwards straight to P_0
        (§3.5.1 Case (2) text).
        """
        csn = self.csn
        if self.stat is Status.NORMAL:
            target = COORDINATOR
        elif not self.config.skip_ck_req:
            target = (self.pid + 1) % self.n
        else:
            target = COORDINATOR
            for k in range(self.pid + 1, self.n):
                if k not in self.tent_set:
                    target = k
                    break
        self._ck_req_sent.add(csn)
        if target == self.pid:
            # Degenerate single-hop wrap (only P_0 can hit this): the wave
            # "returned" instantly — P_0 completes the round itself.
            return self._complete_round_at_p0()
        return [SendControl(dst=target, ctype=ControlType.CK_REQ, csn=csn)]

    def _complete_round_at_p0(self) -> list[Effect]:
        """CK_REQ returned to P_0: broadcast CK_END, finalize if needed."""
        assert self.pid == COORDINATOR
        effects: list[Effect] = []
        if self.csn not in self._ck_end_sent:
            self._ck_end_sent.add(self.csn)
            effects.append(BroadcastControl(ctype=ControlType.CK_END,
                                            csn=self.csn))
        if self.tentative:
            effects += self._finalize(exclude_uid=None,
                                      reason="control.ck_req")
        return effects

    # -- §3.5.1: receiving a control message -------------------------------------

    def on_control(self, cm: ControlMessage, sender: int) -> list[Effect]:
        """Figure 4's ``When P_i receives CM from P_j`` dispatch."""
        if not self.config.control_messages:
            return []
        effects: list[Effect] = []
        if cm.csn == self.csn + 1:
            # A wave for the *next* round reached us before any app message
            # did: finalize the current round (its completion is implied),
            # join the new one, and keep the wave moving.
            if self.tentative:
                effects += self._finalize(exclude_uid=None,
                                          reason="control.next_csn")
            effects += self._take_tentative()
            if cm.ctype is ControlType.CK_REQ or (
                    cm.ctype is ControlType.CK_BGN
                    and self.pid == COORDINATOR):
                effects += self._forward_ck_req()
        elif cm.csn == self.csn:
            if cm.ctype is ControlType.CK_BGN:
                effects += self._on_ck_bgn()
            elif cm.ctype is ControlType.CK_REQ:
                effects += self._on_ck_req()
            else:  # CK_END
                if self.tentative:
                    effects += self._finalize(exclude_uid=None,
                                              reason="control.ck_end")
        elif cm.csn > self.csn + 1:
            effects.append(Anomaly(
                f"P{self.pid} at csn={self.csn} received {cm} "
                f"from P{sender}"))
        # cm.csn < csn: stale wave from a round we already finalized; ignore.
        #
        # Paper rule: "the timer is canceled when ... it receives a CM with
        # sequence number equal to that of its current tentative checkpoint"
        # — a control wave for our round exists, so our CK_BGN is redundant.
        if (self.tentative and cm.csn == self.csn
                and not any(isinstance(e, ArmTimer) for e in effects)):
            effects.append(CancelTimer())
        return effects

    def _on_ck_bgn(self) -> list[Effect]:
        """CK_BGN with our csn arrived (only P_0 should ever receive one)."""
        if self.pid != COORDINATOR:
            return [Anomaly(f"P{self.pid} received CK_BGN (only P_0 may)")]
        if self.tentative:
            if self.csn in self._ck_req_sent:
                return []  # wave already launched for this round
            return self._forward_ck_req()
        # Already finalized: re-announce so the (suppressed) sender learns.
        if self.csn not in self._ck_end_sent:
            self._ck_end_sent.add(self.csn)
            return [BroadcastControl(ctype=ControlType.CK_END, csn=self.csn)]
        return []

    def _on_ck_req(self) -> list[Effect]:
        """CK_REQ with our csn arrived."""
        if self.pid == COORDINATOR:
            # The wave completed its tour.
            if self.csn in self._ck_end_sent:
                return []
            return self._complete_round_at_p0()
        return self._forward_ck_req()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OptimisticStateMachine(P{self.pid}, csn={self.csn}, "
                f"{self.stat.value}, tentSet={sorted(self.tent_set)})")
