"""Experiment harness: configs, runs, comparisons, sweeps, figure scenarios.

Batch execution (:func:`run_many`) and the on-disk result cache
(:class:`ResultCache`) live in :mod:`repro.harness.executor`;
``sweep``/``compare``/``replicate`` take ``jobs=``/``cache=`` and route
through it.

Every name here loads with its defining submodule, on first use
(:mod:`repro._lazy`): ``from repro.harness import ExperimentConfig,
config_key, ResultCache`` imports no part of the simulator, which
:mod:`repro.harness.runner` loads when a run is built.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:           # what type checkers and IDEs read
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
        PROTOCOLS,
        ExperimentConfig,
        ProtocolSpec,
        register_protocol,
    )
    from .replicate import (
        MetricCI,
        confidence_interval,
        replicate,
        replication_summary,
        replication_table,
    )
    from .runner import (
        LATENCIES,
        TOPOLOGIES,
        RunResult,
        build_experiment,
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
    from .sweep import SweepPoint, SweepResult, sweep

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "DEFAULT_COLUMNS": "comparison",
    "DEFAULT_PROTOCOLS": "comparison",
    "assert_all_consistent": "comparison",
    "compare": "comparison",
    "comparison_table": "comparison",
    "ResultCache": "executor",
    "RunFailure": "executor",
    "RunSummary": "executor",
    "config_key": "executor",
    "failures": "executor",
    "map_jobs": "executor",
    "raise_failures": "executor",
    "run_many": "executor",
    "PROTOCOLS": "experiment",
    "ExperimentConfig": "experiment",
    "ProtocolSpec": "experiment",
    "register_protocol": "experiment",
    "MetricCI": "replicate",
    "confidence_interval": "replicate",
    "replicate": "replicate",
    "replication_summary": "replicate",
    "replication_table": "replicate",
    "LATENCIES": "runner",
    "TOPOLOGIES": "runner",
    "RunResult": "runner",
    "build_experiment": "runner",
    "run_experiment": "runner",
    "PlainHost": "scenarios",
    "ScenarioResult": "scenarios",
    "fig1_scenario": "scenarios",
    "fig2_scenario": "scenarios",
    "fig5_scenario": "scenarios",
    "fig5_scenario_without_control": "scenarios",
    "SweepPoint": "sweep",
    "SweepResult": "sweep",
    "sweep": "sweep",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
__all__ = sorted(_LAZY)
