"""The baselines' chained records record exactly what their cuts did.

Baseline checkpoints used to be described as self-contained cumulative
prefix sets, one per process per cut; they are now increments along one
chain per process (``BaselineRuntime.global_records``).  The reference
below is the prefix-set builder they replaced, kept verbatim: on every
baseline, workload and seed, each chained record's cumulative views must
equal the reference sets, and the one-pass verifier must give what
:func:`find_orphans` gives on the reference cuts.
"""

from __future__ import annotations

import pytest

from repro.causality import CheckpointRecord, ConsistencyVerifier, find_orphans
from repro.harness import ExperimentConfig, run_experiment

WORKLOADS = ("uniform", "ring", "client_server", "bursty", "pipeline")
SEEDS = (0, 1, 2)

BASE = ExperimentConfig(n=5, horizon=200.0, checkpoint_interval=30.0,
                        timeout=10.0, state_bytes=500_000, workload_kwargs={})


# -- the reference: the prefix-set builders, as they were ----------------------


def prefix_record(self, seq, taken_at, finalized_at, smark, rmark,
                  extra_sent=(), extra_recv=(), state_bytes=0, log_bytes=0):
    """Build a verification record from a cut position (+channel state)."""
    return CheckpointRecord(
        pid=self.pid, seq=seq, taken_at=taken_at,
        finalized_at=finalized_at,
        new_sent_uids=(frozenset(self.sent_uids[:smark])
                       | frozenset(extra_sent)),
        new_recv_uids=(frozenset(self.recv_uids[:rmark])
                       | frozenset(extra_recv)),
        state_bytes=state_bytes, log_bytes=log_bytes)


def staggered_round_record(self, r):
    """Verification record incl. the sender-side log for one round
    (staggered and Plank)."""
    st = self.rounds[r]
    return prefix_record(
        self, seq=r, taken_at=st.taken_at, finalized_at=st.completed_at,
        smark=st.smark, rmark=st.rmark,
        extra_sent=tuple(st.logged_uids),
        state_bytes=self.state_bytes, log_bytes=st.log_bytes)


def chandy_lamport_round_record(self, round_id):
    """Verification record of this process's snapshot for one round."""
    st = self.rounds[round_id]
    return prefix_record(
        self, seq=round_id, taken_at=st.recorded_at,
        finalized_at=st.completed_at, smark=st.smark, rmark=st.rmark,
        extra_recv=tuple(st.channel_uids),
        state_bytes=self.state_bytes,
        log_bytes=st.channel_bytes)


def koo_toueg_round_record(self, r):
    """Verification record of this process's checkpoint for one round."""
    taken_at, smark, rmark = self.tentative_marks[r]
    return prefix_record(
        self, seq=r, taken_at=taken_at, finalized_at=self.committed.get(r),
        smark=smark, rmark=rmark,
        state_bytes=self.state_bytes)


def cic_cut_record(self, k):
    """The first checkpoint with index >= k."""
    for ck in self.checkpoints:
        if ck.index >= k:
            return prefix_record(
                self, seq=k, taken_at=ck.taken_at, finalized_at=ck.taken_at,
                smark=ck.smark, rmark=ck.rmark,
                state_bytes=self.state_bytes)
    raise KeyError(f"P{self.pid} has no checkpoint with index >= {k}")


def ms_cut_record(self, k):
    """First checkpoint with sn >= k (the MS recovery-line member)."""
    for ck in self.checkpoints:
        if ck.sn >= k:
            return prefix_record(
                self, seq=k, taken_at=ck.taken_at, finalized_at=ck.taken_at,
                smark=ck.smark, rmark=ck.rmark,
                state_bytes=self.state_bytes)
    raise KeyError(f"P{self.pid} has no checkpoint with sn >= {k}")


def complete_rounds(self):
    """Rounds whose end broadcast reached every process (CL, staggered,
    Plank)."""
    common = None
    for host in self.hosts.values():
        done = {r for r, st in host.rounds.items() if st.complete}
        common = done if common is None else common & done
    return sorted(common or ())


def committed_rounds(self):
    """Rounds committed by every process (Koo-Toueg)."""
    common = None
    for host in self.hosts.values():
        done = set(host.committed)
        common = done if common is None else common & done
    return sorted(common or ())


def common_indices(self):
    """Indices k for which every process has a checkpoint with index >= k."""
    if not self.hosts:
        return []
    max_common = min((max((c.index for c in h.checkpoints), default=0)
                      for h in self.hosts.values()), default=0)
    return list(range(1, max_common + 1))


def common_sns(self):
    """Sequence numbers k reached (sn >= k) by every process."""
    if not self.hosts:
        return []
    max_common = min((max((c.sn for c in h.checkpoints), default=0)
                      for h in self.hosts.values()), default=0)
    return list(range(1, max_common + 1))


REFERENCE = {
    "chandy-lamport": (complete_rounds, chandy_lamport_round_record),
    "koo-toueg": (committed_rounds, koo_toueg_round_record),
    "staggered": (complete_rounds, staggered_round_record),
    "plank-staggered": (complete_rounds, staggered_round_record),
    "cic-bcs": (common_indices, cic_cut_record),
    "quasi-sync-ms": (common_sns, ms_cut_record),
}


def reference_records(protocol, runtime):
    seqs, record = REFERENCE[protocol]
    return {k: {pid: record(host, k) for pid, host in runtime.hosts.items()}
            for k in seqs(runtime)}


# -- the differential --------------------------------------------------------------


@pytest.mark.parametrize("protocol", sorted(REFERENCE))
def test_chained_records_equal_the_prefix_sets(protocol):
    cuts = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            res = run_experiment(BASE.derive(protocol=protocol,
                                             workload=workload, seed=seed,
                                             verify=False))
            chained = res.runtime.global_records()
            reference = reference_records(protocol, res.runtime)
            assert list(chained) == list(reference), (workload, seed)
            endpoints = ConsistencyVerifier(res.sim.trace).endpoints
            for seq, ref_cut in reference.items():
                for pid, ref in ref_cut.items():
                    rec = chained[seq][pid]
                    where = (workload, seed, seq, pid)
                    assert rec.sent_uids == ref.sent_uids, where
                    assert rec.recv_uids == ref.recv_uids, where
                    assert (rec.taken_at, rec.finalized_at, rec.state_bytes,
                            rec.log_bytes) == (
                        ref.taken_at, ref.finalized_at, ref.state_bytes,
                        ref.log_bytes), where
            assert ConsistencyVerifier(endpoints=endpoints).verify_all(
                chained) == {seq: find_orphans(cut, endpoints)
                             for seq, cut in reference.items()}
            cuts += len(reference)
    assert cuts >= len(WORKLOADS) * len(SEEDS)


def test_a_checkpoint_recording_less_than_its_predecessor_is_rejected():
    res = run_experiment(BASE.derive(protocol="koo-toueg", verify=False))
    host = res.runtime.hosts[0]
    first, second = sorted(host.committed)[:2]
    assert host.tentative_marks[first][1] > 0      # C_first records sends
    taken_at, _smark, rmark = host.tentative_marks[second]
    host.tentative_marks[second] = (taken_at, 0, rmark)
    with pytest.raises(ValueError, match=f"P0 C_{second} records less"):
        res.runtime.global_records()
