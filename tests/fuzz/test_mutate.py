"""Property tests over the mutation operators.

The satellite invariant: *every* mutation operator yields a FuzzInput
whose FaultPlan round-trips through JSON validation — mutants are plain
files by construction, so anything the fuzzer ever writes to the corpus
can be re-read and replayed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import ChaosError, Fault, FaultPlan
from repro.fuzz import FuzzInput, Mutator, run_input, seed_inputs
from repro.fuzz.mutate import OPERATORS, splice_plans

SEEDS = seed_inputs()


def _roundtrip(inp: FuzzInput) -> FuzzInput:
    blob = json.dumps(inp.as_dict(), sort_keys=True)
    return FuzzInput.from_dict(json.loads(blob))


@settings(max_examples=200, deadline=None)
@given(base=st.integers(0, len(SEEDS) - 1),
       op=st.sampled_from(sorted(OPERATORS)),
       rng_seed=st.integers(0, 2**31 - 1))
def test_every_operator_roundtrips_through_json_validation(
        base, op, rng_seed):
    rng = np.random.default_rng(rng_seed)
    try:
        cand = OPERATORS[op](SEEDS[base], rng)
    except ChaosError:
        return  # operator inapplicable to this parent — a legal outcome
    # The raw candidate may be out of the fuzz envelope (the Mutator
    # retries those), but its *plan* must always survive a JSON
    # round-trip bit-for-bit and re-validate through the plan validator.
    plan2 = FaultPlan.from_dict(
        json.loads(json.dumps(cand.plan.as_dict(), sort_keys=True)))
    assert plan2.as_dict() == cand.plan.as_dict()
    plan2.validate()
    # And an in-envelope candidate round-trips whole.
    try:
        cand.validate()
    except ChaosError:
        return
    again = _roundtrip(cand)
    assert again.as_dict() == cand.as_dict()
    again.validate()


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, len(SEEDS) - 1), b=st.integers(0, len(SEEDS) - 1),
       rng_seed=st.integers(0, 2**31 - 1))
def test_splice_crossover_roundtrips(a, b, rng_seed):
    rng = np.random.default_rng(rng_seed)
    try:
        cand = splice_plans(SEEDS[a], rng, SEEDS[b])
    except ChaosError:
        return
    plan2 = FaultPlan.from_dict(
        json.loads(json.dumps(cand.plan.as_dict())))
    assert plan2.as_dict() == cand.plan.as_dict()
    plan2.validate()


@settings(max_examples=50, deadline=None)
@given(mut_seed=st.integers(0, 10_000),
       base=st.integers(0, len(SEEDS) - 1))
def test_mutator_only_emits_validated_in_envelope_inputs(mut_seed, base):
    mut = Mutator(seed=mut_seed)
    inp = SEEDS[base]
    for _ in range(5):
        inp, op = mut.mutate(inp, other=SEEDS[(base + 1) % len(SEEDS)])
        inp.validate()  # never raises: the Mutator's contract
        assert op == "splice_plans" or op in OPERATORS
        assert _roundtrip(inp).as_dict() == inp.as_dict()


def test_mutator_sequence_is_deterministic_per_seed():
    def run(seed):
        mut = Mutator(seed=seed)
        inp, out = SEEDS[0], []
        for _ in range(20):
            inp, op = mut.mutate(inp, other=SEEDS[1])
            out.append((op, json.dumps(inp.as_dict(), sort_keys=True)))
        return out

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_drop_faults_are_app_frame_only_in_envelope():
    # The envelope forbids control-frame drops (reliable ctl channels);
    # add_fault must therefore never produce one that validates with
    # frames beyond ("app",).
    rng = np.random.default_rng(0)
    seen_drop = 0
    for _ in range(300):
        try:
            cand = OPERATORS["add_fault"](SEEDS[0], rng)
            cand.validate()
        except ChaosError:
            continue
        for f in cand.plan.faults:
            if f.kind == "drop":
                seen_drop += 1
                assert tuple(f.frames) == ("app",)
    assert seen_drop > 0


def test_crash_composes_with_message_holding_faults():
    # A held message stays the network's, so recovery's rollback flushes
    # it with the rest: crash + hold is inside the fault model.
    for hold in (Fault("delay", p=0.25, start=10.0, end=40.0, delay=3.0),
                 Fault("reorder", p=0.3, start=10.0, end=45.0),
                 Fault("partition", start=20.0, end=40.0, group_a=(0, 1),
                       group_b=(2, 3))):
        inp = FuzzInput(plan=FaultPlan(faults=(
            hold, Fault("crash", pid=3, at=30.0))))
        inp.validate()
        outcome = run_input(inp)
        assert outcome["violations"] == [], (hold.kind, outcome)
        assert outcome["injected"].get(hold.kind, 0) > 0, hold.kind
        assert outcome["injected"]["crash"] == 1, hold.kind


def test_seed_inputs_are_valid_and_distinct():
    dicts = [json.dumps(s.as_dict(), sort_keys=True) for s in SEEDS]
    assert len(set(dicts)) == len(dicts)
    for s in SEEDS:
        s.validate()


def test_envelope_rejects_out_of_domain_inputs():
    base = SEEDS[0]
    with pytest.raises(ChaosError):
        base.derive(n=99).validate()
    with pytest.raises(ChaosError):
        base.derive(timeout=base.interval * 2).validate()
