"""Protocol-matrix comparisons over identical workloads.

``compare`` runs the same :class:`~repro.harness.experiment.ExperimentConfig`
under several protocols with the *same seed* (so the workloads' RNG streams
produce identical application traffic) and returns one
:class:`~repro.harness.experiment.RunResult` per protocol.

``comparison_table`` turns those results into the standard protocol-rows
table the benchmarks print.
"""

from __future__ import annotations

from typing import Sequence

from ..api import RunOutcome
from ..metrics.report import Table
from .executor import (
    ProgressArg,
    ResultCache,
    RunSummary,
    raise_failures,
    run_many,
)
from .experiment import ExperimentConfig

#: The default protocol matrix (uncoordinated excluded: its costs are only
#: meaningful through the recovery analysis, not through round metrics).
DEFAULT_PROTOCOLS = (
    "optimistic",
    "chandy-lamport",
    "koo-toueg",
    "staggered",
    "cic-bcs",
)

#: Default columns of a comparison table; keys into RunMetrics.as_dict().
DEFAULT_COLUMNS = (
    "peak_pending_writers",
    "mean_wait",
    "max_wait",
    "ctl_messages",
    "piggyback_bytes",
    "checkpoints",
    "rounds_completed",
    "blocked_time",
    "max_response_delay",
)


def compare(cfg: ExperimentConfig,
            protocols: Sequence[str] = DEFAULT_PROTOCOLS,
            jobs: int = 1, cache: ResultCache | None = None,
            progress: ProgressArg = None
            ) -> dict[str, RunOutcome]:
    """Run ``cfg`` under each protocol (same seed ⇒ same app traffic).

    With ``jobs > 1`` or a ``cache`` the runs go through
    :func:`repro.harness.executor.run_many` and the values are picklable
    :class:`RunSummary` objects (identical metrics to the serial live
    :class:`RunResult` path; a failed run raises with its traceback).
    """
    if jobs <= 1 and cache is None:
        from .runner import run_experiment
        out: dict[str, RunOutcome] = {}
        for name in protocols:
            out[name] = run_experiment(cfg.derive(protocol=name))
        return out
    outcomes = run_many([cfg.derive(protocol=name) for name in protocols],
                        jobs=jobs, cache=cache, progress=progress)
    raise_failures(outcomes)
    return {name: outcome for name, outcome in zip(protocols, outcomes)
            if isinstance(outcome, RunSummary)}


def comparison_table(results: dict[str, RunOutcome],
                     columns: Sequence[str] = DEFAULT_COLUMNS,
                     title: str = "") -> Table:
    """Protocol-rows table over selected metric columns."""
    table = Table("protocol", *columns, title=title)
    for name, res in results.items():
        row = res.metrics.as_dict()
        table.add_row(name, *(row.get(c, "") for c in columns))
    return table


def assert_all_consistent(results: dict[str, RunOutcome]
                          ) -> None:
    """Every verified cut of every protocol must be orphan-free."""
    for name, res in results.items():
        bad = {seq: c for seq, c in res.orphans.items() if c}
        assert not bad, f"{name}: orphaned cuts {bad}"
