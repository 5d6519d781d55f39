"""Experiment harness: configs, runs, comparisons, sweeps, figure scenarios.

Batch execution (:func:`run_many`) and the on-disk result cache
(:class:`ResultCache`) live in :mod:`repro.harness.executor`;
``sweep``/``compare``/``replicate`` take ``jobs=``/``cache=`` and route
through it.
"""

from .comparison import (
    DEFAULT_COLUMNS,
    DEFAULT_PROTOCOLS,
    assert_all_consistent,
    compare,
    comparison_table,
)
from .executor import (
    ResultCache,
    RunFailure,
    RunSummary,
    config_key,
    failures,
    map_jobs,
    raise_failures,
    run_many,
)
from .experiment import (
    LATENCIES,
    PROTOCOLS,
    TOPOLOGIES,
    ExperimentConfig,
    ProtocolSpec,
    RunResult,
    build_experiment,
    register_protocol,
    run_experiment,
)
from .scenarios import (
    PlainHost,
    ScenarioResult,
    fig1_scenario,
    fig2_scenario,
    fig5_scenario,
    fig5_scenario_without_control,
)
from .replicate import (
    MetricCI,
    confidence_interval,
    replicate,
    replication_summary,
    replication_table,
)
from .sweep import SweepPoint, SweepResult, sweep

__all__ = [
    "DEFAULT_COLUMNS",
    "DEFAULT_PROTOCOLS",
    "ExperimentConfig",
    "LATENCIES",
    "MetricCI",
    "PROTOCOLS",
    "PlainHost",
    "ProtocolSpec",
    "ResultCache",
    "RunFailure",
    "RunResult",
    "RunSummary",
    "ScenarioResult",
    "SweepPoint",
    "SweepResult",
    "TOPOLOGIES",
    "assert_all_consistent",
    "build_experiment",
    "compare",
    "comparison_table",
    "config_key",
    "confidence_interval",
    "failures",
    "map_jobs",
    "raise_failures",
    "run_many",
    "replicate",
    "replication_summary",
    "replication_table",
    "fig1_scenario",
    "fig2_scenario",
    "fig5_scenario",
    "fig5_scenario_without_control",
    "register_protocol",
    "run_experiment",
    "sweep",
]
