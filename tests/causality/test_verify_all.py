"""``ConsistencyVerifier.verify_all``: one pass over checkpoint increments.

:func:`find_orphans` on materialised cumulative sets is the definition;
the pass must return exactly what it returns, cut by cut, in the same
order — on random chains with seeded orphans, gaps and deleted
generations, on a finished simulation with one send moved out of its
checkpoint, and at a cost that does not depend on the number of rounds.
Chains and cuts come from the library's own :func:`chain` and
:func:`complete_cuts`, the one way every runtime builds them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality import (
    CheckpointRecord,
    ConsistencyVerifier,
    chain,
    complete_cuts,
    find_orphans,
)

from ..conftest import build_optimistic_run, run_to_quiescence


def rows(increments):
    """:func:`chain` rows from ``{seq: (new_sent, new_recv)}``."""
    return [(seq, 0.0, 1.0, frozenset(sent), frozenset(recv), 0, 0)
            for seq, (sent, recv) in sorted(increments.items())]


# -- (a) differential property ------------------------------------------------


@st.composite
def executions(draw):
    """Per-process increment series with everything a real run can hold:
    receives recorded before their send (orphans), receives recorded twice
    (duplicate deliveries; an excluded trigger carried to the next window),
    a send also claimed by a process that is not its source (counts for
    nothing), generations a process never finalized (gaps in the complete
    seqs) and generations deleted after the fact (a rollback), whose uids
    are lost."""
    n = draw(st.integers(2, 5))
    rounds = draw(st.integers(1, 6))
    gens = st.integers(1, rounds + 1)          # rounds + 1: never recorded
    increments = {pid: {k: (set(), set()) for k in range(rounds + 2)}
                  for pid in range(n)}
    endpoints = {}
    for uid in range(draw(st.integers(0, 30))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1).filter(lambda d: d != src))
        endpoints[uid] = (src, dst)
        increments[src][draw(gens)][0].add(uid)
        for claimant in draw(st.sets(st.integers(0, n - 1), max_size=1)):
            increments[claimant][draw(gens)][0].add(uid)
        for k in draw(st.sets(gens, min_size=1, max_size=2)):
            increments[dst][k][1].add(uid)
    for pid in range(n):
        del increments[pid][rounds + 1]
        for k in draw(st.sets(st.integers(1, rounds), max_size=2)):
            del increments[pid][k]
    return n, increments, endpoints


@settings(max_examples=300, deadline=None)
@given(executions())
def test_pass_equals_find_orphans_cut_by_cut(execution):
    n, increments, endpoints = execution
    chains = {pid: chain(pid, rows(increments[pid])) for pid in range(n)}
    by_seq = complete_cuts(chains)

    # The reference: prefix unions built here, not by the records.
    expected = {}
    for seq in by_seq:
        cut = {}
        for pid in range(n):
            sent = set().union(*(s for k, (s, _) in increments[pid].items()
                                 if k <= seq))
            recv = set().union(*(r for k, (_, r) in increments[pid].items()
                                 if k <= seq))
            cut[pid] = CheckpointRecord(
                pid=pid, seq=seq, taken_at=0.0, finalized_at=1.0,
                new_sent_uids=frozenset(sent),
                new_recv_uids=frozenset(recv))
            assert chains[pid][seq].sent_uids == sent
            assert chains[pid][seq].recv_uids == recv
        expected[seq] = find_orphans(cut, endpoints)

    verifier = ConsistencyVerifier(endpoints=endpoints)
    assert verifier.verify_all(by_seq) == expected
    folded = sum(len(s) + len(r) for pid in range(n)
                 for k, (s, r) in increments[pid].items()
                 if by_seq and k <= max(by_seq))
    assert verifier.uids_examined <= folded


def test_cuts_that_do_not_continue_the_chain_are_rejected():
    # Two independent chains for P1: S_2's record does not extend S_1's.
    # find_orphans would call S_2 consistent (``other`` never recorded the
    # receive), but a fold cannot forget what S_1 folded in.
    endpoints = {7: (0, 1)}
    p0 = chain(0, rows({0: ((), ()), 1: ((), ()), 2: ([7], ())}))
    p1 = chain(1, rows({0: ((), ()), 1: ((), [7])}))
    other = chain(1, rows({0: ((), ()), 2: ((), ())}))
    by_seq = {1: {0: p0[1], 1: p1[1]}, 2: {0: p0[2], 1: other[2]}}
    verifier = ConsistencyVerifier(endpoints=endpoints)
    with pytest.raises(ValueError, match="P1 C_2 does not continue"):
        verifier.verify_all(by_seq)
    # A cut over other pids than the one before does not continue it either.
    with pytest.raises(ValueError, match="does not continue"):
        verifier.verify_all({1: {0: p0[1], 1: p1[1]}, 2: {0: p0[2]}})


def test_self_contained_records_mix_with_nothing():
    # One spelling: the cumulative sets are views, never arguments, and
    # everything after finalized_at is keyword-only.
    with pytest.raises(TypeError, match="sent_uids"):
        CheckpointRecord(0, 0, 0.0, 0.0, sent_uids=frozenset())
    with pytest.raises(TypeError, match="positional"):
        CheckpointRecord(0, 0, 0.0, 0.0, frozenset([1]))


# -- (b) the three rejections ----------------------------------------------------


class TestRejections:
    def cuts(self, p1_recv, p1_seq=1):
        p0 = chain(0, rows({0: ((), ()), 1: ([10], ())}))
        p1 = chain(1, rows({0: ((), ()), p1_seq: ((), p1_recv)}))
        return {1: {0: p0[1], 1: p1[p1_seq]}}

    def test_receive_destined_elsewhere(self):
        v = ConsistencyVerifier(endpoints={10: (0, 2)})
        with pytest.raises(ValueError, match="destined"):
            v.verify_all(self.cuts([10]))

    def test_unknown_uid(self):
        v = ConsistencyVerifier(endpoints={10: (0, 1)})
        with pytest.raises(KeyError):
            v.verify_all(self.cuts([10, 99]))

    def test_sender_outside_the_cut(self):
        v = ConsistencyVerifier(endpoints={10: (5, 1)})
        with pytest.raises(KeyError):
            v.verify_all(self.cuts([10]))

    def test_mixed_sequence_numbers(self):
        v = ConsistencyVerifier(endpoints={10: (0, 1)})
        with pytest.raises(ValueError, match="multiple sequence"):
            v.verify_all(self.cuts([10], p1_seq=2))


# -- (c) orphan seeding, end to end ------------------------------------------------


def finished_run(interval=30.0, horizon=200.0):
    sim, net, st_, rt = build_optimistic_run(
        n=4, seed=11, horizon=horizon, rate=2.0, interval=interval,
        timeout=8.0, state_bytes=10_000)
    run_to_quiescence(sim, rt)
    return sim, rt


@pytest.mark.parametrize("hops", [1, 2])
def test_a_send_moved_to_a_later_checkpoint_flags_the_rounds_in_between(hops):
    sim, rt = finished_run()
    assert all(not o for o in rt.verify_consistency().values())
    seqs = rt.finalized_seqs()
    endpoints = ConsistencyVerifier(sim.trace).endpoints
    # A message sent and received inside the same generation k.
    uid, src, k = next(
        (uid, pid, k)
        for pid, host in sorted(rt.hosts.items())
        for k in seqs[1:-hops]
        for uid in sorted(host.finalized[k].new_sent_uids)
        if uid in rt.hosts[endpoints[uid][1]].finalized[k].new_recv_uids)
    sender = rt.hosts[src]
    sender.finalized[k].new_sent_uids -= {uid}
    sender.finalized[k + hops].new_sent_uids |= {uid}

    results = rt.verify_consistency()
    flagged = [seq for seq, orphans in results.items() if orphans]
    assert flagged == list(range(k, k + hops))
    for seq in flagged:
        (orphan,) = results[seq]
        assert (orphan.uid, orphan.src, orphan.seq) == (uid, src, seq)
    with pytest.raises(AssertionError, match=f"orphan message #{uid}"):
        rt.assert_consistent()


# -- (d) cost is linear in the messages, not in rounds x messages ---------------------


def test_examined_uids_do_not_grow_with_the_number_of_rounds():
    examined, rounds, messages = [], [], []
    for interval in (40.0, 20.0):
        sim, rt = finished_run(interval=interval, horizon=400.0)
        verifier = ConsistencyVerifier(sim.trace)
        results = verifier.verify_all(rt.global_records())
        assert all(not o for o in results.values())
        examined.append(verifier.uids_examined)
        rounds.append(len(results))
        messages.append(len(verifier.endpoints))
    assert messages[0] == messages[1]            # same traffic
    assert rounds[1] >= 1.8 * rounds[0]          # twice the rounds
    assert abs(examined[1] - examined[0]) < 0.10 * examined[0]
    assert examined[1] <= 2 * messages[1]        # each end at most once
