"""The shared ProtocolDriver against an in-memory port.

No simulator and no asyncio: a port is a clock plus a few recording
methods, which is the point — the effect interpreter, the selective log,
the ``logSet - {M}`` window carve-out, rollback and the "any checkpoint
satisfies the schedule" rule are tested once, for every runtime.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    Anomaly,
    ControlMessage,
    ControlType,
    Finalize,
    MachineConfig,
    OptimisticStateMachine,
    Piggyback,
    ProtocolAnomalyError,
    ProtocolDriver,
    Status,
    TakeTentative,
    TentativeCheckpoint,
)
from repro.core.state_machine import receive_case

N, T = Status.NORMAL, Status.TENTATIVE


def pb(csn, stat, tent=()):
    return Piggyback(csn=csn, stat=stat, tent_set=frozenset(tent))


class SimShapedPort:
    """A simulator-shaped runtime: one restartable timer object per timer,
    deadlines on a clock the test advances, and a horizon after which no
    initiation is scheduled (as ``OptimisticProcess`` does it)."""

    interval = 50.0
    timeout = 20.0
    horizon = 10_000.0
    initiation_deadline = None

    def __init__(self):
        self.now = 0.0
        self.convergence_deadline = None
        self.sent = []          # (dst, ControlMessage)
        self.tentatives = []    # TentativeCheckpoint
        self.finalized = []     # (FinalizedCheckpoint, exclude_uid)
        self.reported = []      # anomaly descriptions

    def send_control(self, dst, cm):
        self.sent.append((dst, cm))

    def arm_convergence_timer(self):
        self.convergence_deadline = self.now + self.timeout

    def cancel_convergence_timer(self):
        self.convergence_deadline = None

    def arm_initiation_timer(self):
        if self.now + self.interval <= self.horizon:
            self.initiation_deadline = self.now + self.interval
        else:
            self.initiation_deadline = None

    def capture_tentative(self, csn, digest):
        ckpt = TentativeCheckpoint(pid=-1, csn=csn, taken_at=self.now,
                                   state_bytes=1000, digest=digest)
        self.tentatives.append(ckpt)
        return ckpt

    def store_finalized(self, fc, exclude_uid):
        self.finalized.append((fc, exclude_uid))

    def report_anomaly(self, description):
        self.reported.append(description)


class LoopShapedPort(SimShapedPort):
    """An event-loop-shaped runtime: the initiation timer is a one-shot
    handle that is cancelled and replaced (as ``LiveHost`` does with
    ``call_later``)."""

    handle = None               # (when, cancelled) of the pending call

    def arm_initiation_timer(self):
        if self.handle is not None:
            self.handle[1] = True
        self.handle = [self.now + self.interval, False]

    @property
    def initiation_deadline(self):
        if self.handle is None or self.handle[1]:
            return None
        return self.handle[0]


def driver(pid=1, n=3, port=None, **kw):
    port = port if port is not None else SimShapedPort()
    return ProtocolDriver(pid, n, port, **kw), port


class TestReceiveCases:
    """Every §3.4.3 case, observed at the port."""

    def test_case1_and_4a_do_nothing(self):
        d, port = driver()
        d.app_received(pb(0, N), uid=1, nbytes=10)            # Case 1
        d.app_received(pb(0, T, {0}), uid=2, nbytes=10)       # Case 4(a)
        assert not port.tentatives and not port.finalized
        assert d.window_recv == [1, 2] and len(d.log_entries) == 0

    def test_case4b_takes_tentative_and_merges(self):
        d, port = driver()
        d.app_received(pb(1, T, {0}), uid=7, nbytes=10)
        assert [c.csn for c in port.tentatives] == [1]
        assert d.current_tentative is port.tentatives[0]
        assert d.machine.tent_set == {0, 1}
        assert port.convergence_deadline == port.timeout
        # M was processed *before* the checkpoint was taken: it is part of
        # CT's state (the captured digest), not of the selective log.
        assert len(d.log_entries) == 0 and port.tentatives[0].digest != 0

    def test_case2a_and_3a_do_nothing(self):
        d, port = driver()
        d.machine.restore(2, T, {1})
        d.app_received(pb(1, T, {0}), uid=1, nbytes=10)        # Case 2(a)
        d.app_received(pb(1, N), uid=2, nbytes=10)             # Case 3(a)
        assert not port.finalized
        assert [e.uid for e in d.log_entries] == [1, 2]

    def test_case2b_finalizes_only_on_complete_tentset(self):
        d, port = driver()
        d.initiate()
        d.app_received(pb(1, T, {0}), uid=1, nbytes=10)
        assert not port.finalized                               # {0,1} of 3
        d.app_received(pb(1, T, {2}), uid=2, nbytes=10)
        (fc, exclude), = port.finalized
        assert fc.reason == "piggyback.allset" and exclude is None
        assert fc.logged_uids == {1, 2} and fc.new_recv_uids == {1, 2}
        assert d.finalize_reasons == {"piggyback.allset": 1}
        assert port.convergence_deadline is None                # CancelTimer

    def test_case2c_finalizes_then_joins_next_round(self):
        d, port = driver()
        d.initiate()
        d.app_received(pb(2, T, {0}), uid=5, nbytes=10)
        (fc, exclude), = port.finalized
        assert (fc.csn, fc.reason, exclude) == (1, "piggyback.next_csn", 5)
        assert [c.csn for c in port.tentatives] == [1, 2]
        assert d.machine.csn == 2 and d.machine.tent_set == {0, 1}

    def test_case3b_finalizes_excluding_trigger(self):
        d, port = driver()
        d.initiate()
        d.app_received(pb(1, N), uid=9, nbytes=10)
        (fc, exclude), = port.finalized
        assert (fc.reason, exclude) == ("piggyback.peer_normal", 9)
        assert d.machine.stat is N

    @pytest.mark.parametrize("tentative,piggyback", [
        (False, pb(1, N)),          # 1x
        (False, pb(2, T)),          # 4(c)
        (True, pb(2, N)),           # 3(c)
        (True, pb(3, T)),           # 2(d)
    ])
    def test_impossible_cases_are_anomalies(self, tentative, piggyback):
        d, port = driver()
        if tentative:
            d.initiate()
        d.app_received(piggyback, uid=1, nbytes=10)
        assert len(d.anomalies) == 1 and port.reported == d.anomalies
        assert not port.finalized

    def test_case_counts_are_opt_in(self):
        d, _ = driver()
        d.app_received(pb(0, N), uid=1, nbytes=0)
        assert d.case_counts is None
        d.case_counts = {}
        d.app_received(pb(0, N), uid=2, nbytes=0)
        d.app_received(pb(1, T, {0}), uid=3, nbytes=0)
        d.app_received(pb(1, T, {0}), uid=4, nbytes=0)
        assert d.case_counts == {"1": 1, "4b": 1, "2b": 1}


class TestSelectiveLogAndWindows:
    def test_excluded_trigger_moves_to_next_window(self):
        d, port = driver()
        d.app_sent(uid=100, nbytes=30)             # before CT: window only
        d.initiate()
        d.app_sent(uid=101, nbytes=30)
        d.app_received(pb(1, T, {0}), uid=1, nbytes=20)
        d.app_received(pb(1, N), uid=2, nbytes=20)            # 3(b): M = 2
        (fc, exclude), = port.finalized
        assert exclude == 2
        assert fc.new_sent_uids == {100, 101}
        assert fc.new_recv_uids == {1}                      # logSet − {M}
        assert fc.logged_uids == {101, 1} and fc.log_bytes == 50
        # ... and M is the first receive of the *next* window.
        assert d.window_sent == [] and d.window_recv == [2]
        assert len(d.log_entries) == 0 and d.log_bytes == 0
        d.initiate()
        d.app_received(pb(2, N), uid=3, nbytes=20)
        fc2, _ = port.finalized[1]
        assert fc2.new_recv_uids == {2}
        assert fc2.logged_uids == set()     # M predates CT_2: in its state

    def test_hook_sees_the_round_being_finalized(self):
        seen = []

        class Port(SimShapedPort):
            def store_finalized(self, fc, exclude_uid):
                seen.append((d.log_bytes, list(d.window_recv)))

        d, _ = driver(port=Port())
        d.initiate()
        d.app_received(pb(1, N), uid=4, nbytes=25)
        assert seen == [(25, [4])]

    def test_messages_outside_the_tentative_window_are_not_logged(self):
        d, _ = driver()
        d.app_sent(uid=1, nbytes=10)
        d.app_received(pb(0, N), uid=2, nbytes=10)
        assert len(d.log_entries) == 0 and d.log_bytes == 0

    def test_log_all_ablation(self):
        d, port = driver(log_all=True)
        d.app_sent(uid=1, nbytes=10)                         # normal: logged
        d.initiate()                                          # log survives CT
        d.app_received(pb(1, N), uid=2, nbytes=15)            # 3(b): M = 2
        (fc, _), = port.finalized
        assert fc.logged_uids == {1} and fc.log_bytes == 10
        # The excluded entry stays alive for the next checkpoint's log.
        assert [e.uid for e in d.log_entries] == [2] and d.log_bytes == 15

    def test_digest_folds_every_receive_in_order(self):
        a, _ = driver()
        b, _ = driver()
        for uid in (1, 2):
            a.app_received(pb(0, N), uid=uid, nbytes=0)
        for uid in (2, 1):
            b.app_received(pb(0, N), uid=uid, nbytes=0)
        assert a.state_digest != 0 and a.state_digest != b.state_digest


class TestControlPlane:
    def test_control_sends_are_tallied_and_forwarded(self):
        d, port = driver(pid=0)
        d.initiate()
        port.now = port.convergence_deadline
        d.on_timer()                               # P0 launches CK_REQ
        assert port.sent == [(1, ControlMessage(ControlType.CK_REQ, 1))]
        d.on_control(ControlMessage(ControlType.CK_REQ, 1), sender=2)
        # the wave returned: CK_END to everyone else, then finalize
        assert [dst for dst, cm in port.sent[1:]] == [1, 2]
        assert d.ctl_sent == {"CK_REQ": 1, "CK_END": 2}
        (fc, _), = port.finalized
        assert fc.reason == "control.ck_req"


class TestRollback:
    def test_rollback_restores_protocol_state(self):
        d, port = driver(pid=0)
        d.initiate()
        d.app_received(pb(1, T, {1}), uid=1, nbytes=10)
        d.app_received(pb(1, T, {2}), uid=2, nbytes=10)       # finalize C_1
        (c1, _), = port.finalized
        d.app_sent(uid=50, nbytes=10)
        d.initiate()                                           # open CT_2
        port.now = port.convergence_deadline
        d.on_timer()                                           # CK_REQ(2) out
        d.app_received(pb(2, T, {1}), uid=3, nbytes=10)
        d.rollback(c1)
        m = d.machine
        assert (m.csn, m.stat, m.tent_set) == (1, N, set())
        assert d.current_tentative is None
        assert d.window_sent == [] and d.window_recv == []
        assert len(d.log_entries) == 0 and d.log_bytes == 0
        assert port.convergence_deadline is None
        assert d.state_digest == c1.replay_digest()
        # control-plane memory of round 2 is gone: the wave relaunches
        d.initiate()
        before = len(port.sent)
        d.on_timer()
        assert port.sent[before:] == [
            (1, ControlMessage(ControlType.CK_REQ, 2))]


class TestStrictAnomalies:
    def test_strict_raises_after_recording(self):
        d, port = driver(strict=True)
        with pytest.raises(ProtocolAnomalyError):
            d.app_received(pb(5, N), uid=1, nbytes=0)
        assert len(d.anomalies) == 1 and port.reported == d.anomalies

    def test_nonstrict_counts(self):
        d, _ = driver()
        d.app_received(pb(5, N), uid=1, nbytes=0)
        assert len(d.anomalies) == 1


@pytest.mark.parametrize("port_cls", [SimShapedPort, LoopShapedPort])
class TestScheduleSatisfiedByAnyCheckpoint:
    """Paper §1, advantage 3: no extra checkpoints beyond one per interval —
    a checkpoint taken for *any* reason restarts the initiation schedule.
    The rule lives in the driver, so it holds for every runtime shape."""

    def test_piggyback_join_rearms_a_full_interval(self, port_cls):
        d, port = driver(port=port_cls())
        port.arm_initiation_timer()                 # runtime start, t=0
        port.now = 30.0
        d.app_received(pb(1, T, {0}), uid=1, nbytes=0)        # Case 4(b)
        assert port.initiation_deadline == 30.0 + port.interval

    def test_next_round_ck_req_rearms_a_full_interval(self, port_cls):
        d, port = driver(port=port_cls())
        port.arm_initiation_timer()
        port.now = 41.0
        d.on_control(ControlMessage(ControlType.CK_REQ, 1), sender=0)
        assert [c.csn for c in port.tentatives] == [1]
        assert port.initiation_deadline == 41.0 + port.interval

    def test_own_initiation_schedules_the_next_period(self, port_cls):
        d, port = driver(port=port_cls())
        port.now = 50.0
        d.on_initiation_timer()
        assert [c.csn for c in port.tentatives] == [1]
        assert port.initiation_deadline == 100.0
        port.now = 100.0
        d.on_initiation_timer()                     # still tentative: skipped
        assert [c.csn for c in port.tentatives] == [1]
        assert port.initiation_deadline == 150.0

    def test_fixed_phase_ablation_leaves_the_schedule_alone(self, port_cls):
        d, port = driver(port=port_cls(), reset_schedule=False)
        port.arm_initiation_timer()
        port.now = 30.0
        d.app_received(pb(1, T, {0}), uid=1, nbytes=0)
        assert port.initiation_deadline == port.interval


# -- receive_case <-> on_app_receive agreement --------------------------------

NO_EFFECT = {"1", "2a", "3a", "4a"}
ANOMALY = {"1x", "2d", "3c", "4c"}


@pytest.mark.parametrize("mstat,pstat,delta,complete", list(itertools.product(
    (N, T), (N, T), (-2, -1, 0, 1, 2), (True, False))))
def test_receive_case_labels_the_branch_on_app_receive_takes(
        mstat, pstat, delta, complete):
    n, pid, mcsn = 3, 1, 5
    m = OptimisticStateMachine(pid, n, config=MachineConfig())
    m.restore(mcsn, mstat, {pid} if mstat is T else set())
    # tentSet knowledge that does / does not complete ours on a merge
    tent = (frozenset(range(n)) if complete else frozenset({0})) \
        if pstat is T else frozenset()
    piggyback = Piggyback(mcsn + delta, pstat, tent)
    label = receive_case(mstat, pstat, piggyback.csn, mcsn)
    effects = m.on_app_receive(piggyback, uid=77)
    kinds = [type(e) for e in effects]
    if label in NO_EFFECT:
        assert effects == []
        assert (m.csn, m.stat) == (mcsn, mstat)
    elif label == "2b":
        fins = [e for e in effects if isinstance(e, Finalize)]
        if complete:
            assert fins == [Finalize(mcsn, None, "piggyback.allset")]
        else:
            assert effects == []
    elif label == "2c":
        assert kinds[0] is Finalize and effects[0].exclude_uid == 77
        assert TakeTentative(mcsn + 1) in effects
    elif label == "3b":
        assert effects[0] == Finalize(mcsn, 77, "piggyback.peer_normal")
        assert TakeTentative not in kinds
    elif label == "4b":
        assert effects[0] == TakeTentative(mcsn + 1)
        assert Finalize not in kinds
    else:
        assert label in ANOMALY
        assert kinds == [Anomaly]
        assert (m.csn, m.stat) == (mcsn, mstat)
