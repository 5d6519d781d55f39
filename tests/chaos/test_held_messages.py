"""The network owns every message in flight, held ones included.

A fault that holds a message back (delay, reorder, partition) puts it
back in flight through ``Network.redeliver``, so recovery's rollback
flushes it with the rest (Theorem 2 survives crash + hold) and the
network's counters close: every message sent is delivered or dropped
once, a hold is not a drop, and a duplicate copy is counted nowhere.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos import ALL_KINDS, Fault, FaultPlan
from repro.chaos.des import (
    PROTOCOL_MUTATIONS,
    cell_config,
    default_des_plan,
    run_plan,
)
from repro.core.driver import ProtocolAnomalyError
from repro.core.types import Piggyback, Status

#: One fault per kind that holds messages, each straddling P3's crash at
#: t=50 (the recovery at t=55 must flush what they hold).
HOLDS = {
    "delay": Fault("delay", p=0.2, start=10.0, end=80.0, delay=2.0),
    "reorder": Fault("reorder", p=0.2, start=10.0, end=80.0),
    "partition": Fault("partition", start=20.0, end=80.0, group_a=(0, 1),
                       group_b=(2, 3)),
}

HOLD_CAUSES = {"chaos.delay", "chaos.reorder", "partition"}


def crash_plus(kind: str, seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, faults=(HOLDS[kind],
                                        Fault("crash", pid=3, at=50.0)))


@pytest.mark.parametrize("kind", sorted(HOLDS))
def test_a_crash_flushes_what_a_fault_holds(kind):
    # Before the network owned held messages, a held message was
    # delivered into the recovered execution: 12 (delay), 20 (reorder)
    # and 20 (partition) of these 20 seeds broke Theorem 2 or raised.
    for seed in range(20):
        out = run_plan(crash_plus(kind, seed), cell_config(seed))
        assert out["violations"] == [], (seed, out["violations"])
        assert out["injected"].get(kind, 0) > 0 and out["injected"]["crash"]


def _run_captured(plan, seed, monkeypatch):
    """``run_plan`` plus the finished run's network and trace (captured
    by an installer that changes nothing)."""
    seen = {}

    def capture(sim, net, storage, runtime):
        seen.update(sim=sim, net=net)

    monkeypatch.setitem(PROTOCOL_MUTATIONS, "capture", capture)
    out = run_plan(plan, cell_config(seed), mutation="capture")
    return out, seen["net"], seen["sim"].trace


ACCOUNTED = [(kind, default_des_plan(kind, 0)) for kind in ALL_KINDS] + [
    (f"crash+{kind}", crash_plus(kind, 0)) for kind in sorted(HOLDS)]


@pytest.mark.parametrize("name,plan", ACCOUNTED,
                         ids=[name for name, _ in ACCOUNTED])
def test_every_message_is_delivered_or_dropped_once(name, plan,
                                                    monkeypatch):
    out, net, trace = _run_captured(plan, 0, monkeypatch)
    assert not out["truncated"] and out["violations"] == [], out
    for ch in net.channels():
        stats = ch.stats
        assert stats.in_flight == 0, (ch, stats)
        assert stats.messages == stats.delivered + stats.dropped, (ch, stats)
    assert not HOLD_CAUSES & set(net.dropped_by_cause()), \
        net.dropped_by_cause()
    # A copy repeats its original's uid; each original arrives once.
    app_uids = Counter(uid for *_, kind, uid in
                       trace.select("msg.deliver", "kind", "uid")
                       if kind == "app")
    assert net.delivered_by_kind.get("app", 0) == len(app_uids)
    if "duplicate" not in name:
        assert set(app_uids.values()) == {1}
    if not {"drop", "crash"} & set(name.split("+")):
        # Nothing is lost, so every message sent arrives.  (The seed-0
        # delay cell holds 71 of its 490 app messages; it used to count
        # them as `chaos.delay` drops and report 420 delivered.)
        assert net.delivered_by_kind == net.sent_by_kind
        assert out["app_delivered"] == net.sent_by_kind["app"]


def _install_forged_piggyback(sim, net, storage, runtime):
    """Deliver one app message carrying a piggyback two rounds ahead of
    its receiver: proven impossible (§3.4.3 cases 2(d) and 4(c))."""
    forged = []

    def gate(msg):
        if msg.kind == "app" and not forged and sim.now >= 15.0:
            csn = net.processes[msg.dst].machine.csn + 2
            # A fresh dict: app sends share one interned meta dict, so a
            # write into it would forge every later message too.
            msg.meta = {"pb": Piggyback(csn=csn, stat=Status.TENTATIVE,
                                        tent_set=frozenset({msg.src}))}
            forged.append(msg.uid)
        return None

    net.gates.append(gate)


def test_the_judge_reports_an_anomaly_instead_of_raising(monkeypatch):
    monkeypatch.setitem(PROTOCOL_MUTATIONS, "forged-piggyback",
                        _install_forged_piggyback)
    try:
        out = run_plan(FaultPlan(seed=0), cell_config(0),
                       mutation="forged-piggyback")
    except ProtocolAnomalyError as exc:  # the judge ran the driver strict
        pytest.fail(f"anomaly escaped the judge: {exc}")
    assert [v["kind"] for v in out["violations"]] == ["anomaly"], out
    assert len(out["anomalies"]) == 1 and not out["consistent"]
