"""The property library on hand-built views, and on whole DES runs.

Each property gets one clean view and one that violates it, built by
hand — no exploration and no run needed.  The DES runs hold the library's
end-of-run adapter (:meth:`Snapshot.of_runtime`) to every check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import pytest

from repro.causality import ConsistencyVerifier
from repro.causality.consistency import chain, find_orphans
from repro.causality.properties import (
    JOURNAL_CHECKS,
    STATE_CHECKS,
    TERMINAL_CHECKS,
    Snapshot,
    check_all_normal,
    check_anomaly_free,
    check_consistency,
    check_knowledge_validity,
    check_round_prefix,
    check_rounds_agree,
    check_sequence_discipline,
    cuts,
    orphans,
    violations,
)
from repro.core.types import Status

from ..conftest import build_optimistic_run, run_to_quiescence

N, T = Status.NORMAL, Status.TENTATIVE


class Machine(NamedTuple):
    csn: int
    stat: Status
    tent_set: frozenset[int] = frozenset()


@dataclass
class View:
    """A hand-built system view: per process its machine, the csns it
    took, and csn -> (sent, recv) increments of its finalized records."""

    machines: list[Machine]
    took_: list[set[int]]
    fin: list[dict[int, tuple[frozenset[int], frozenset[int]]]]
    anomalies_: list[list[str]] = field(default_factory=list)
    endpoints: dict[int, tuple[int, int]] = field(default_factory=dict)
    in_flight: list[tuple[int, Status, frozenset[int]]] = field(
        default_factory=list)

    @property
    def n(self) -> int:
        return len(self.machines)

    def machine(self, i):
        return self.machines[i]

    def took(self, i):
        return self.took_[i]

    def finalized(self, i):
        return self.fin[i]

    def chain(self, i):
        return chain(i, ((csn, 0.0, 0.0, s, r, 0, 0)
                         for csn, (s, r) in sorted(self.fin[i].items())))

    def anomalies(self, i):
        return self.anomalies_[i] if self.anomalies_ else []

    def app_piggybacks_in_flight(self):
        return self.in_flight


E = frozenset()


def fs(*uids: int) -> frozenset[int]:
    return frozenset(uids)


def settled(n: int = 2, rounds: int = 1) -> View:
    """n NORMAL processes that all finalized rounds 0..rounds."""
    return View(machines=[Machine(rounds, N)] * n,
                took_=[set(range(1, rounds + 1)) for _ in range(n)],
                fin=[{k: (E, E) for k in range(rounds + 1)}
                     for _ in range(n)])


def mid_round() -> View:
    """P0 tentative in round 2 (P1 too, known to P0); round 1 done."""
    return View(machines=[Machine(2, T, fs(0, 1)), Machine(2, T, fs(1))],
                took_=[{1, 2}, {1, 2}],
                fin=[{0: (E, E), 1: (E, E)}, {0: (E, E), 1: (E, E)}])


def message(send_round: int, recv_round: int) -> View:
    """uid 7, P0 -> P1: C_{0,send_round} records its send, C_{1,recv_round}
    its receipt; both processes finalized rounds 0..2."""
    fin: list[dict[int, tuple[frozenset[int], frozenset[int]]]] = [
        {k: (E, E) for k in range(3)} for _ in range(2)]
    fin[0][send_round] = (fs(7), E)
    fin[1][recv_round] = (E, fs(7))
    return View(machines=[Machine(2, N)] * 2, took_=[{1, 2}, {1, 2}],
                fin=fin, endpoints={7: (0, 1)})


class TestAnomalyFree:
    def test_clean(self):
        assert check_anomaly_free(settled()) == []

    def test_violating(self):
        view = settled()
        view.anomalies_ = [[], ["Case 2(d) piggyback"]]
        assert check_anomaly_free(view) == [
            "P1 protocol anomaly: Case 2(d) piggyback"]


class TestSequenceDiscipline:
    def test_clean(self):
        assert check_sequence_discipline(settled(rounds=2)) == []
        assert check_sequence_discipline(mid_round()) == []

    def test_skipped_csn_violates(self):
        view = settled()
        view.machines = [Machine(2, N), Machine(1, N)]
        view.took_[0] = {2}
        view.fin[0] = {0: (E, E), 2: (E, E)}
        found = check_sequence_discipline(view)
        assert found == [
            "P0 took [2] but csn=2 (expected dense 1..2)",
            "P0 finalized [0, 2], expected [0, 1, 2] (csn=2, normal)"]

    def test_double_tentative_violates(self):
        # CT_2 opened while CT_1 was never finalized.
        view = settled()
        view.machines[0] = Machine(2, T, fs(0))
        view.took_[0] = {1, 2}
        view.fin[0] = {0: (E, E)}
        assert check_sequence_discipline(view) == [
            "P0 finalized [0], expected [0, 1] (csn=2, tentative)"]

    def test_finalize_without_tentative_violates(self):
        view = settled()
        view.took_[0] = set()
        assert check_sequence_discipline(view) == [
            "P0 took [] but csn=1 (expected dense 1..1)"]

    def test_finalize_csn_mismatch_violates(self):
        # The open tentative is CT_1 but C_2 was finalized.
        view = settled()
        view.machines[0] = Machine(1, T, fs(0))
        view.fin[0] = {0: (E, E), 2: (E, E)}
        assert check_sequence_discipline(view) == [
            "P0 finalized [0, 2], expected [0] (csn=1, tentative)"]

    def test_per_process_independence(self):
        # P0 mid-round while P1 already finalized it: both disciplined.
        view = settled()
        view.machines[0] = Machine(1, T, fs(0))
        view.fin[0] = {0: (E, E)}
        assert check_sequence_discipline(view) == []

    def test_finalized_open_tentative_violates(self):
        # P0 finalized the round it is still tentative in.
        view = mid_round()
        view.fin[0][2] = (E, E)
        assert check_sequence_discipline(view) == [
            "P0 finalized [0, 1, 2], expected [0, 1] (csn=2, tentative)"]


class TestKnowledgeValidity:
    def test_clean(self):
        view = mid_round()
        view.in_flight = [(2, T, fs(0, 1)), (1, N, E)]
        assert check_knowledge_validity(view) == []

    def test_belief_in_an_untaken_checkpoint_violates(self):
        view = mid_round()
        view.took_[1] = {1}
        view.machines[1] = Machine(1, N)
        view.in_flight = [(2, T, fs(1))]
        assert check_knowledge_validity(view) == [
            "P0 believes P1 took CT_2 but P1 never did (took=[1])",
            "in-flight piggyback claims P1 took CT_2 but P1 never did"]

    def test_own_membership_follows_status(self):
        view = mid_round()
        view.machines = [Machine(2, T, fs(1)), Machine(1, N, fs(1))]
        assert check_knowledge_validity(view) == [
            "P0 tentative but not in own tentSet [1]",
            "P1 normal with non-empty tentSet [1]"]


class TestConsistency:
    def test_clean(self):
        # Sent and received inside the same round: recorded on both sides.
        view = message(1, 1)
        assert check_consistency(view) == []
        # Received later than sent is fine too (in transit across S_1).
        assert check_consistency(message(1, 2)) == []

    def test_orphan_violates_in_every_cut_it_crosses(self):
        view = message(2, 1)
        assert check_consistency(view) == [
            "S_1 inconsistent: C_{1,1} records receipt of message #7 but "
            "C_{0,1} does not record its send (orphan)"]

    @pytest.mark.parametrize("rounds", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_agrees_with_the_reference_definition(self, rounds):
        view = message(*rounds)
        want = {seq: find_orphans(records, view.endpoints)
                for seq, records in cuts(view).items()}
        assert orphans(view) == want

    def test_unknown_uid_raises(self):
        view = message(1, 1)
        view.endpoints = {}
        with pytest.raises(KeyError):
            check_consistency(view)


class TestRoundPrefix:
    def test_clean(self):
        assert check_round_prefix(settled(rounds=3)) == []
        # One process a round ahead: allowed mid-round.
        view = settled(rounds=2)
        view.fin[0][3] = (E, E)
        assert check_round_prefix(view) == []

    def test_missing_lower_round_violates(self):
        view = settled(n=3, rounds=2)
        del view.fin[1][1]
        assert check_round_prefix(view) == [
            "round 2 is finalized but P1 never finalized rounds [1]"]


class TestConvergence:
    def test_clean(self):
        view = settled(n=3, rounds=2)
        assert check_all_normal(view) == [] and check_rounds_agree(view) == []

    def test_stuck_tentative_violates(self):
        view = mid_round()
        assert check_all_normal(view) == [
            "terminal state with P0 still tentative at csn=2, tentSet=[0, 1]",
            "terminal state with P1 still tentative at csn=2, tentSet=[1]"]
        assert check_rounds_agree(view) == [
            "round 2 was initiated but P0 never finalized C_{0,2}",
            "round 2 was initiated but P1 never finalized C_{1,2}"]

    def test_diverged_sets_violate(self):
        view = settled(rounds=2)
        view.machines[1] = Machine(1, N)
        view.took_[1] = {1}
        del view.fin[1][2]
        assert check_rounds_agree(view) == [
            "terminal state with diverged csns [1, 2]",
            "terminal state with diverged finalized sets "
            "{0: [0, 1, 2], 1: [0, 1]}",
            "round 2 was initiated but P1 never finalized C_{1,2}"]


class TestTables:
    def test_property_names_and_unique_kinds(self):
        names = [p.name for p in STATE_CHECKS + TERMINAL_CHECKS]
        assert names == [
            "anomaly.free", "sequence.discipline",
            "knowledge.validity(optimization soundness)",
            "theorem2.consistency", "theorem1.round_prefix",
            "theorem1.convergence", "theorem1.convergence"]
        kinds = [p.kind for p in STATE_CHECKS + TERMINAL_CHECKS]
        assert len(set(kinds)) == len(kinds)

    def test_journal_checks_need_no_tent_set(self):
        # A journal view's state carries no tentSet: no journal check may
        # read one.
        class Bare(NamedTuple):
            csn: int
            stat: Status

        view = settled(rounds=2)
        view.machines = [Bare(2, N), Bare(2, N)]
        assert violations(view, JOURNAL_CHECKS) == []

    def test_violations_pairs_properties_with_messages(self):
        view = message(2, 1)
        found = violations(view, STATE_CHECKS)
        assert [(p.name, len(m)) for p, m in found] == [
            ("theorem2.consistency", 1)]


class TestDesRuns:
    """The end-of-run adapter over whole simulations."""

    @staticmethod
    def judge(sim, runtime):
        view = Snapshot.of_runtime(
            runtime, ConsistencyVerifier(sim.trace).endpoints)
        return violations(view, STATE_CHECKS + TERMINAL_CHECKS)

    def test_full_simulation_clean(self):
        sim, net, st, rt = build_optimistic_run(n=5, seed=3, horizon=150.0,
                                                rate=2.0, interval=40.0)
        run_to_quiescence(sim, rt)
        assert rt.finalized_seqs()[-1] >= 2
        assert self.judge(sim, rt) == []

    def test_simulation_with_recovery_clean(self):
        from repro.recovery import RecoveryManager
        sim, net, st, rt = build_optimistic_run(
            n=4, seed=5, horizon=300.0, rate=2.0, interval=40.0,
            strict=False)
        mgr = RecoveryManager(rt)
        mgr.crash_and_recover(1, at=150.0, recovery_delay=5.0)
        rt.start()
        sim.run(max_events=2_000_000)
        assert len(mgr.events) == 1
        assert self.judge(sim, rt) == []

    def test_a_seeded_gap_is_caught(self):
        sim, net, st, rt = build_optimistic_run(n=3, seed=1, horizon=100.0)
        run_to_quiescence(sim, rt)
        del rt.hosts[2].finalized[1]
        kinds = [p.kind for p, _ in self.judge(sim, rt)]
        # The hole also breaks P2's chain: C_{2,2}'s increment no longer
        # reaches back over C_{2,1}'s sends.
        assert kinds == ["sequence", "orphans", "round-prefix", "divergence"]
