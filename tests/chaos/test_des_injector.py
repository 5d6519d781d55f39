"""DES fault-injection cells: every kind recovers, deterministically."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import ALL_KINDS, ChaosError, run_des_cell, single_fault_plan


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cell_consistent_and_recovered(kind):
    out = run_des_cell(kind, seed=2)
    assert out["consistent"], out
    assert out["recovered"], out
    assert sum(out["injected"].values()) > 0, out


@pytest.mark.parametrize("kind", ["drop", "partition", "crash", "torn-write"])
def test_cell_deterministic(kind):
    # Same seed + same plan ⇒ the same run, down to every counter.  The
    # returned dict carries no uids or wall-clock values, so plain
    # equality is the right check.
    assert run_des_cell(kind, seed=5) == run_des_cell(kind, seed=5)


def test_different_seeds_draw_different_faults():
    a = run_des_cell("drop", seed=1)
    b = run_des_cell("drop", seed=2)
    assert a["injected"] != b["injected"] or a["rounds"] != b["rounds"]


def test_delay_plan_is_fault_free_after_its_last_redelivery():
    # end=70, delay=3: a message held at t=70 is redelivered at t=73, so a
    # round finalizing in (70, 73] is not yet post-fault.
    from repro.chaos.des import default_des_plan, last_fault_end

    assert last_fault_end(default_des_plan("delay")) == 73.0
    assert last_fault_end(default_des_plan("drop")) == \
        default_des_plan("drop").faults[0].end


def test_unknown_kind_raises():
    with pytest.raises(ChaosError):
        run_des_cell("bit-flip")


def test_custom_plan_overrides_default():
    plan = single_fault_plan("drop", seed=9, p=0.0, start=0.0, end=1.0)
    out = run_des_cell("drop", seed=9, plan=plan)
    # p=0 inside a 1-second window injects nothing ⇒ not "recovered"
    # (recovery requires at least one injected fault to recover from).
    assert out["injected"].get("drop", 0) == 0
    assert not out["recovered"]


def test_drop_cell_attributes_drops_to_chaos():
    out = run_des_cell("drop", seed=2)
    by_cause = out["dropped_by_cause"]
    assert by_cause.get("chaos.drop", 0) == out["injected"]["drop"]


def test_duplicate_copies_are_never_themselves_duplicated():
    # Regression (found by `repro fuzz`): redelivery re-runs the gate
    # chain, so without the once-only marker a p=1.0 duplicate window
    # turned one delivery into a self-replicating micro-spaced chain —
    # millions of events before the window closed.
    plan = single_fault_plan("duplicate", seed=0, p=1.0,
                             start=5.0, end=15.0, frames=("app",))
    out = run_des_cell("duplicate", seed=0, plan=plan)
    # The buggy injector hit the event cap (truncated); with the marker
    # each original is copied exactly once, so the run stays bounded.
    assert out["consistent"] and not out["truncated"]
    assert 0 < out["injected"]["duplicate"] < 10_000


#: The cell record's pinned fields: the judge may add fields, never
#: change these.
CELL_KEYS = ("runtime", "fault", "seed", "consistent", "recovered",
             "truncated", "injected", "recovered_actions", "rounds",
             "post_fault_rounds", "anomalies", "orphans", "dropped_by_cause",
             "makespan")

#: SHA-256 of the canonical JSON of every (kind, seed 0-2) cell record,
#: restricted to CELL_KEYS.
CELL_GOLDEN = \
    "97cb9d64fffd3b1bf11ca3cb07a6baf2af4284538279d1d7b65c0695131969bd"


def test_cells_match_the_golden_digest():
    cells = []
    for kind in ALL_KINDS:
        for seed in range(3):
            out = run_des_cell(kind, seed=seed)
            cells.append({k: out[k] for k in CELL_KEYS})
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == CELL_GOLDEN
