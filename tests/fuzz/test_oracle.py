"""The oracle: clean inputs pass, the seeded protocol mutation fails."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fuzz import (
    PROTOCOL_MUTATIONS,
    FuzzInput,
    coverage_signature,
    coverage_tokens,
    run_input,
    seed_inputs,
)
from repro.fuzz.oracle import run_item

#: SHA-256 of the canonical JSON of ``run_input`` over every seed input,
#: clean and under ``drop-ck-req``, and of their coverage signatures:
#: corpora, coverage curves and ``--resume`` depend on both staying put.
#: Re-pinned once when held messages stopped counting as drops: only the
#: delay, reorder and partition inputs changed, in ``dropped_by_cause``
#: (and its ``drop:*`` coverage token), ``app_delivered`` and ``events``.
OUTCOME_GOLDEN = \
    "20a4874bf0664c2dbb8bd7eb960810257eded41fc2e2baffef5d7c365d1c9796"
SIGNATURE_GOLDEN = \
    "a93db0ecf66e7cfab8b7e4fb95d7fe640e32961a7b220e614c85a288168ee4c1"


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_clean_seed_corpus_has_no_violations():
    # Every seed input must pass the oracle on the unmutated protocol —
    # the campaign's soundness bar (a "clean" finding would be noise).
    for inp in seed_inputs():
        outcome = run_input(inp)
        assert outcome["violations"] == [], (inp.as_dict(), outcome)
        assert not outcome["truncated"]
        assert outcome["rounds"] >= 1


def test_outcome_carries_behavioral_signals():
    outcome = run_input(seed_inputs()[1])  # the drop seed
    assert outcome["case_counts"].get("1", 0) > 0
    assert sum(outcome["ctl_sent"].values()) > 0
    assert outcome["injected"].get("drop", 0) > 0
    assert outcome["app_delivered"] > 0
    assert outcome["events"] > 0
    assert outcome["input"] == seed_inputs()[1].as_dict()


def test_drop_ck_req_mutation_is_caught_by_the_oracle():
    assert "drop-ck-req" in PROTOCOL_MUTATIONS
    violating = [inp for inp in seed_inputs()
                 if run_input(inp, mutation="drop-ck-req")["violations"]]
    # At least one benign seed exposes the seeded bug (the gossip-starved
    # regime cannot relaunch a wave whose CK_REQ was eaten).
    assert violating, "seeded protocol bug went undetected"


def test_run_item_is_the_picklable_worker_face():
    inp = seed_inputs()[0]
    outcome = run_item((inp.as_dict(), None))
    assert outcome["violations"] == []
    assert outcome["input"] == inp.as_dict()


def test_unknown_mutation_is_rejected():
    with pytest.raises(ValueError, match="unknown protocol mutation"):
        run_input(seed_inputs()[0], mutation="no-such-mutation")


def test_duplicate_storm_does_not_melt_the_oracle():
    """Regression: a p=1.0 duplicate window must not self-replicate.

    Found by the fuzzer itself: the injector re-ran the duplicate gate on
    its own copies, so one delivery inside the window exploded into a
    micro-spaced chain of millions of events and the oracle read the
    truncation as a Theorem 1 liveness violation on the *clean* protocol.
    """
    from repro.chaos.plan import Fault, FaultPlan
    from repro.fuzz import WorkloadSchedule

    inp = FuzzInput(
        plan=FaultPlan(faults=(
            Fault(kind="duplicate", p=1.0, start=40.0, end=44.0,
                  frames=("app",)),)),
        schedule=WorkloadSchedule(workload="uniform", rate=0.5,
                                  msg_size=512),
        n=2, seed=0, horizon=120.0, interval=5.0, timeout=5.0)
    inp.validate()
    outcome = run_input(inp)
    assert outcome["violations"] == []
    assert not outcome["truncated"]
    assert outcome["injected"].get("duplicate", 0) >= 1


def test_overlapping_partitions_run_clean():
    """Two cuts in force at once are in the fuzz envelope, and the DES
    runs them: a message crossing both is held by each in turn."""
    from repro.chaos.plan import Fault, FaultPlan

    inp = FuzzInput(plan=FaultPlan(faults=(
        Fault("partition", start=10.0, end=35.0, group_a=(0, 1),
              group_b=(2, 3)),
        Fault("partition", start=20.0, end=45.0, group_a=(0,),
              group_b=(1, 2, 3)))))
    inp.validate()
    outcome = run_input(inp)
    assert outcome["violations"] == [], outcome
    assert not outcome["truncated"]
    assert outcome["injected"]["partition"] > 0
    assert outcome["recovered"]


def test_outcomes_and_signatures_match_the_golden_digests():
    outcomes = [run_input(inp, mutation=m)
                for inp in seed_inputs() for m in (None, "drop-ck-req")]
    signatures = [coverage_signature(coverage_tokens(o)) for o in outcomes]
    assert _digest(outcomes) == OUTCOME_GOLDEN
    assert _digest(signatures) == SIGNATURE_GOLDEN
