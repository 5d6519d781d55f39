"""The fuzzer's oracle: one fuzz input through the DES fault-run judge.

The verdict is :func:`repro.chaos.des.run_plan`'s, the one the chaos
matrix and ``repro chaos --plan`` apply.  The input envelope
(:meth:`FuzzInput.validate`) keeps every fault inside the paper's fault
model, where anomalies are unreachable, so any violation is a protocol
bug, not an injector artifact.  ``run_item`` is ``run_input``'s
picklable face for ``map_jobs``.
"""

from __future__ import annotations

from typing import Any

from ..chaos.des import run_plan
from ..harness.experiment import ExperimentConfig
from .inputs import FuzzInput

FuzzOutcome = dict[str, Any]


def experiment_config(inp: FuzzInput) -> ExperimentConfig:
    """The harness config one fuzz input denotes."""
    return ExperimentConfig(
        protocol="optimistic",
        n=inp.n,
        seed=inp.seed,
        horizon=inp.horizon,
        checkpoint_interval=inp.interval,
        timeout=inp.timeout,
        state_bytes=1_000_000,
        topology=inp.schedule.topology,
        workload=inp.schedule.workload,
        workload_kwargs=inp.schedule.workload_kwargs(),
        max_events=inp.max_events(),
    )


def run_input(inp: FuzzInput, mutation: str | None = None,
              tracer: Any | None = None) -> FuzzOutcome:
    """Execute one fuzz input; returns the picklable outcome record."""
    inp.validate()
    return {"input": inp.as_dict(),
            **run_plan(inp.plan, experiment_config(inp),
                       mutation=mutation, tracer=tracer)}


def run_item(item: tuple[dict[str, Any], str | None]) -> FuzzOutcome:
    """``map_jobs`` worker: (input dict, mutation name) -> outcome."""
    input_dict, mutation = item
    return run_input(FuzzInput.from_dict(input_dict), mutation=mutation)
