"""Bounded model checker: exhaustive clean runs + broken-config teeth."""

from __future__ import annotations

import itertools
import marshal

from repro.causality.consistency import find_orphans
from repro.causality.properties import STATE_CHECKS, cuts, orphans
from repro.core.state_machine import MachineConfig
from repro.verify import ExploreConfig, explore, render_counterexample
from repro.verify.explore import (
    RECORD_CHECKS,
    ModelSystem,
    counterexample_trace,
)


class TestCleanConfigurations:
    def test_two_process_exhaustive_clean(self):
        result = explore(ExploreConfig(n=2))
        assert result.complete
        assert result.ok
        assert not result.violations
        # Pinned exactly: the explorer runs the shared ProtocolDriver, and a
        # change to that executor must not silently change the explored
        # space (the n=3 acceptance run is 974,341 / 4,378,827 / 1,384).
        assert (result.states, result.transitions,
                result.terminal_states) == (1_798, 5_301, 32)

    def test_two_process_fifo_clean(self):
        result = explore(ExploreConfig(n=2, fifo=True))
        assert result.complete and result.ok
        # FIFO delivery is a restriction of arbitrary reordering.
        assert result.states <= explore(ExploreConfig(n=2)).states

    def test_three_process_control_plane_clean(self):
        # Pure control-plane convergence (no app messages): all
        # interleavings of 3 concurrent initiations, CK waves and timers.
        result = explore(ExploreConfig(n=3, sends_per_process=0))
        assert result.complete and result.ok
        assert result.states > 500

    def test_two_rounds_clean(self):
        result = explore(ExploreConfig(n=2, max_csn=2,
                                       sends_per_process=0))
        assert result.complete and result.ok

    def test_truncation_reported(self):
        result = explore(ExploreConfig(n=2, max_states=10))
        assert not result.complete
        assert not result.ok          # incomplete runs never claim victory


class TestEncoding:
    def test_encode_decode_round_trip(self):
        cfg = ExploreConfig()
        key = ModelSystem(cfg).encode()
        again = ModelSystem.decode(key, cfg).encode()
        assert key == again
        # and through the marshal packing the search uses
        assert ModelSystem.decode(
            marshal.loads(marshal.dumps(key)), cfg).encode() == key

    def test_equal_states_encode_to_one_key_however_their_sets_were_built(
            self):
        # Same state twice: sets inserted in different orders, and the
        # finalized records once as ``prev | increment`` (how the driver
        # builds them) and once as whole cumulative sets.
        cfg = ExploreConfig(n=2)
        a, b = ModelSystem(cfg), ModelSystem(cfg)
        for sys_v in (a, b):
            sys_v.apply(("initiate", 0))
        a.procs[1].took, b.procs[1].took = {8, 0}, {0, 8}
        a.procs[1].finalized[1] = (frozenset({8}) | frozenset({0}),
                                   frozenset({16, 8}))
        b.procs[1].finalized[1] = (frozenset({0, 8}),
                                   frozenset({8}) | frozenset({16}))
        a.drivers[1].window_recv = [16, 0]
        b.drivers[1].window_recv = [0, 16]
        key = a.encode()
        assert b.encode() == key
        assert marshal.dumps(b.encode()) == marshal.dumps(key)

        def sets_in(value):
            if isinstance(value, (set, frozenset)):
                return 1
            if isinstance(value, (tuple, list)):
                return sum(sets_in(v) for v in value)
            return 0

        # No set reaches marshal, whose set order is version-dependent.
        assert sum(sets_in(marshal.loads(pk)) for pk in key[0]) == 0
        back = ModelSystem.decode(key, cfg)
        assert back.procs[1].finalized[1] == ({0, 8}, {8, 16})
        assert isinstance(back.procs[1].finalized[1][0], frozenset)
        assert back.machine(0).control_state() == a.machine(0).control_state()
        assert back.encode() == key

    def test_uid_src_is_canonical(self):
        cfg = ExploreConfig(n=3, sends_per_process=2)
        sys_v = ModelSystem(cfg)
        # uid = 1 + src * sends_per_process + per-sender index
        assert [sys_v.uid_src(uid) for uid in range(1, 7)] == \
            [0, 0, 1, 1, 2, 2]

    def test_clone_is_isolated(self):
        cfg = ExploreConfig(n=2)
        a = ModelSystem(cfg)
        b = a.clone()
        b.apply(("initiate", 0))
        assert a.machine(0).csn == 0          # parent untouched (COW)
        assert b.machine(0).csn == 1


class TestLibraryView:
    """ModelSystem as the property library's view of one state."""

    @staticmethod
    def states_with_receipts(cfg, limit=400):
        """Breadth-first states whose finalized records hold a receipt."""
        root = ModelSystem(cfg)
        queue, seen, out = [root], {marshal.dumps(root.encode())}, []
        while queue and len(out) < limit:
            sys_v = queue.pop(0)
            if any(recv for i in range(cfg.n)
                   for _sent, recv in sys_v.finalized(i).values()):
                out.append(sys_v)
            for action in sys_v.enabled_actions():
                child = sys_v.clone()
                child.apply(action)
                key = marshal.dumps(child.encode())
                if key not in seen:
                    seen.add(key)
                    queue.append(child)
        return out

    def test_chains_and_endpoints_restate_the_cumulative_records(self):
        cfg = ExploreConfig(n=2, max_csn=2)
        states = self.states_with_receipts(cfg)
        assert states
        for sys_v in states:
            for i in range(cfg.n):
                records = sys_v.chain(i)
                for csn, (sent, recv) in sys_v.finalized(i).items():
                    assert records[csn].sent_uids == sent
                    assert records[csn].recv_uids == recv
                    for uid in recv:
                        assert sys_v.endpoints[uid] == (sys_v.uid_src(uid), i)
            assert orphans(sys_v) == {
                seq: find_orphans(cut, sys_v.endpoints)
                for seq, cut in cuts(sys_v).items()}

    def test_record_checks_name_library_properties(self):
        assert RECORD_CHECKS <= {p.name for p in STATE_CHECKS}


class TestBrokenConfigurations:
    def test_dropped_ck_req_yields_theorem1_counterexample(self):
        cfg = ExploreConfig(n=2, drop_ck_req_forwarding=True)
        result = explore(cfg)
        assert not result.ok
        assert len(result.violations) == 1
        v = result.violations[0]
        assert v.prop == "theorem1.convergence"
        assert "tentative" in v.message
        assert len(v.path) > 0

    def test_counterexample_trace_renders(self):
        cfg = ExploreConfig(n=2, drop_ck_req_forwarding=True)
        result = explore(cfg)
        v = result.violations[0]
        trace = counterexample_trace(v, cfg)
        records = list(trace)
        # one record per step plus the closing mc.violation marker
        assert len(records) == len(v.path) + 1
        assert records[-1].kind == "mc.violation"
        text = render_counterexample(v, cfg)
        assert "counterexample" in text
        assert "theorem1.convergence" in text
        assert "mc.initiate" in text

    def test_no_control_messages_ablation_diverges(self):
        cfg = ExploreConfig(
            n=2, machine=MachineConfig(control_messages=False))
        result = explore(cfg)
        assert not result.ok
        assert result.violations[0].prop == "theorem1.convergence"

    def test_as_dict_carries_rendered_trace(self):
        cfg = ExploreConfig(n=2, drop_ck_req_forwarding=True)
        d = explore(cfg).as_dict()
        assert d["violations"]
        entry = d["violations"][0]
        assert entry["property"] == "theorem1.convergence"
        assert any("mc.violation" in line for line in entry["trace"])


#: The five MachineConfig switches of §3.5.1 and its fixes (the control
#: plane itself stays on).
_SWITCHES = ("suppress_ck_bgn", "skip_ck_req", "p0_broadcast_on_finalize",
             "timer_escalation", "finalize_on_complete_knowledge")


class TestSwitchTable:
    def test_every_switch_combination_at_n2(self):
        """All 32 combinations explored at n=2: exactly the Case-(1)
        liveness hole fails Theorem 1 — CK_BGN suppressed with neither
        P_0's CK_END broadcast, timer escalation nor the complete-
        knowledge fast path to close it (``skip_ck_req`` either way)."""
        failing = {}
        for combo in itertools.product((False, True), repeat=5):
            switches = dict(zip(_SWITCHES, combo))
            result = explore(ExploreConfig(
                n=2, machine=MachineConfig(**switches)))
            if result.violations:
                failing[combo] = [(v.prop, len(v.path))
                                  for v in result.violations]
            else:
                assert result.ok, switches
        hole = {"suppress_ck_bgn": True, "p0_broadcast_on_finalize": False,
                "timer_escalation": False,
                "finalize_on_complete_knowledge": False}
        expected = {
            tuple({**hole, "skip_ck_req": skip}[s] for s in _SWITCHES):
                [("theorem1.convergence", 7)]
            for skip in (False, True)}
        assert failing == expected
