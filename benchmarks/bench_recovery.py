"""E8 — recovery cost after a failure.

For one identical workload, inject a hypothetical failure at several times
and compare, per protocol: the recovery point used, total lost work
(sum over processes of failure-time minus recovered-state time), and —
for uncoordinated checkpointing — the domino rollback.

Expected shape:

* uncoordinated (no logs): unbounded/domino rollback — by far the worst;
* uncoordinated + receiver logging: bounded (the logging rescue, [4]);
* coordinated schemes & CIC: bounded by one checkpoint interval;
* optimistic: bounded by one interval *and* strictly better than its own
  no-log ablation — the selective log replays the tentative-to-finalize
  window (recovery lands at CFE, not at CT).
"""

from __future__ import annotations

from repro.harness import ExperimentConfig, run_experiment
from repro.metrics import Table
from repro.recovery import (
    recover_coordinated,
    recover_optimistic,
    recover_optimistic_no_log,
    recover_uncoordinated,
)

from .conftest import once, paper_config

FAIL_TIMES = (120.0, 200.0, 280.0)


def run_all():
    base = dict(n=8, seed=7, state_bytes=4_000_000,
                workload_kwargs={"rate": 1.5, "msg_size": 1024},
                checkpoint_interval=50.0, horizon=300.0)
    out = {}
    for protocol in ("optimistic", "chandy-lamport", "koo-toueg",
                     "staggered", "plank-staggered", "cic-bcs",
                     "quasi-sync-ms", "uncoordinated"):
        out[protocol] = run_experiment(paper_config(protocol=protocol,
                                                    **base))
    out["uncoordinated+log"] = run_experiment(
        paper_config(protocol="uncoordinated", uncoordinated_logging=True,
                     **base))
    return out


def outcomes_at(results, t):
    outs = {}
    outs["optimistic"] = recover_optimistic(results["optimistic"].runtime, t)
    outs["optimistic-nolog"] = recover_optimistic_no_log(
        results["optimistic"].runtime, t)
    for name in ("chandy-lamport", "koo-toueg", "staggered",
                 "plank-staggered", "cic-bcs", "quasi-sync-ms"):
        outs[name] = recover_coordinated(results[name].runtime, t, name)
    outs["uncoordinated"] = recover_uncoordinated(
        results["uncoordinated"].runtime, results["uncoordinated"].sim.trace,
        t)
    outs["uncoordinated+log"] = recover_uncoordinated(
        results["uncoordinated+log"].runtime,
        results["uncoordinated+log"].sim.trace, t, use_logs=True)
    return outs


def test_e8_recovery_cost(benchmark):
    results = once(benchmark, run_all)
    print()
    for t in FAIL_TIMES:
        outs = outcomes_at(results, t)
        table = Table("protocol", "recovery seq", "total lost work (s)",
                      "max lost work (s)", "procs rolled back",
                      title=f"E8 — failure at t={t}")
        for name, out in outs.items():
            table.add_row(name, out.seq, out.total_lost_work,
                          out.max_lost_work,
                          out.processes_rolled_back
                          if out.rollback_checkpoints else "-")
        print(table.render())
        print()

        # Shape: domino ruins uncoordinated recovery; logging rescues it.
        assert (outs["uncoordinated"].total_lost_work
                >= outs["uncoordinated+log"].total_lost_work)
        # Bounded rollback for every coordinated flavour: lost work per
        # process under ~2 intervals.
        for name in ("optimistic", "chandy-lamport", "koo-toueg",
                     "staggered", "plank-staggered", "cic-bcs",
                     "quasi-sync-ms"):
            assert outs[name].max_lost_work <= 2 * 50.0 + 30.0, name
        # The selective log buys back work within the round.
        assert (outs["optimistic"].total_lost_work
                <= outs["optimistic-nolog"].total_lost_work)

    # At the latest failure time, the domino gap is dramatic.
    late = outcomes_at(results, FAIL_TIMES[-1])
    assert (late["uncoordinated"].total_lost_work
            > 2 * late["optimistic"].total_lost_work)
