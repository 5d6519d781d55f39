"""``LogSet``: the selective message log as columns.

The columns must behave exactly like the ``list[LogEntry]`` they replace —
checked differentially against that list — and a run must keep no
``LogEntry`` object alive.
"""

from __future__ import annotations

import gc

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    FinalizedCheckpoint,
    LogEntry,
    LogSet,
    TentativeCheckpoint,
)
from repro.core.types import fold_digest
from repro.harness.experiment import ExperimentConfig, run_experiment

entries = st.builds(
    LogEntry,
    uid=st.integers(min_value=0, max_value=5),      # repeats exercise without
    nbytes=st.integers(min_value=0, max_value=10**6),
    direction=st.sampled_from(["sent", "recv"]),
    time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))

ops = st.lists(st.one_of(
    st.tuples(st.just("append"), entries),
    st.tuples(st.just("without"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("rebuild"), st.lists(entries, max_size=6)),
), max_size=25)


def checkpoint(log) -> FinalizedCheckpoint:
    ct = TentativeCheckpoint(pid=0, csn=1, taken_at=0.0, state_bytes=0,
                             digest=12345)
    return FinalizedCheckpoint(pid=0, csn=1, tentative=ct, finalized_at=1.0,
                               log_entries=log)


def old_replay_digest(ref: list[LogEntry]) -> int:
    digest = 12345
    for e in ref:
        if e.direction == "recv":
            digest = fold_digest(digest, e.uid)
    return digest


@given(ops=ops)
def test_columns_match_an_entry_list(ops):
    log, ref = LogSet(), []
    for op, arg in ops:
        if op == "append":
            log.append(arg.uid, arg.nbytes, arg.direction, arg.time)
            ref.append(arg)
        elif op == "without":
            before = list(log)
            log, kept = log.without(arg), log
            assert list(kept) == before                 # a copy, not in place
            ref = [e for e in ref if e.uid != arg]
        else:
            log, ref = LogSet(arg), list(arg)
        assert list(log) == ref and len(log) == len(ref)
        assert [log[i] for i in range(len(ref))] == ref
        assert log.total_bytes == sum(e.nbytes for e in ref)
        assert log == LogSet(ref) and log.copy() == log
    for fc in (checkpoint(log), checkpoint(ref), checkpoint(iter(ref))):
        assert isinstance(fc.log_entries, LogSet) and fc.log_entries == log
        assert fc.log_bytes == sum(e.nbytes for e in ref)
        assert fc.logged_uids == frozenset(e.uid for e in ref)
        assert fc.replay_digest() == old_replay_digest(ref)


def test_copy_is_independent():
    log = LogSet([LogEntry(1, 10, "sent", 0.5)])
    twin = log.copy()
    twin.append(2, 20, "recv", 1.0)
    assert len(log) == 1 and log.total_bytes == 10
    assert twin[-1] == LogEntry(2, 20, "recv", 1.0) and twin.total_bytes == 30


def test_a_run_keeps_no_log_entry_object():
    def live_entries() -> int:
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is LogEntry)

    before = live_entries()
    result = run_experiment(ExperimentConfig(
        n=16, seed=0, horizon=300.0, latency="constant",
        latency_kwargs={"delay": 0.35}, workload="ring",
        workload_kwargs={"period": 1.0, "msg_size": 256},
        state_bytes=1_000_000, verify=False, trace_enabled=False))
    assert result.runtime.total_logged_messages() > 0
    assert live_entries() == before
