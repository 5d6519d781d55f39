"""Parameter sweeps.

A sweep varies one configuration field over a value list, optionally under
several protocols, producing the (x, series...) data behind every
figure-style experiment.  Seeds are derived per sweep point (base seed +
point index) so points are independent samples, while all protocols at one
point share the seed and hence the workload.  Sweeping ``seed`` itself
disables that derivation — the swept values *are* the seeds.

``jobs``/``cache`` route the runs through
:mod:`repro.harness.executor`: points fan out over a worker pool and/or
memoise on disk, with results landing as picklable
:class:`~repro.harness.executor.RunSummary` objects instead of live
:class:`RunResult`\\ s (identical metrics either way — runs are
deterministic in their configs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..api import RunOutcome
from ..metrics.report import Table
from .executor import (
    ProgressArg,
    ResultCache,
    RunSummary,
    raise_failures,
    run_many,
)
from .experiment import ExperimentConfig, set_param


@dataclass
class SweepPoint:
    """All protocol results at one parameter value."""

    value: Any
    results: dict[str, RunOutcome] = field(default_factory=dict)


@dataclass
class SweepResult:
    """A completed sweep."""

    param: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, protocol: str,
               metric: Callable[[RunOutcome], Any] | str
               ) -> tuple[list[Any], list[Any]]:
        """Extract (xs, ys) for one protocol and one metric.

        ``metric`` is either a callable over the per-run result
        (:class:`RunResult` or :class:`RunSummary`) or a key of
        ``RunMetrics.as_dict()``.
        """
        if isinstance(metric, str):
            key = metric
            metric = lambda r: r.metrics.as_dict().get(key)  # noqa: E731
        xs, ys = [], []
        for pt in self.points:
            if protocol in pt.results:
                xs.append(pt.value)
                ys.append(metric(pt.results[protocol]))
        return xs, ys

    def table(self, metric: str, title: str = "") -> Table:
        """Render one metric across all protocols as a value-rows table."""
        protocols = sorted({p for pt in self.points for p in pt.results})
        t = Table(self.param, *protocols, title=title or metric)
        for pt in self.points:
            t.add_row(pt.value,
                      *(pt.results[p].metrics.as_dict().get(metric, "")
                        if p in pt.results else ""
                        for p in protocols))
        return t


def sweep(base: ExperimentConfig, param: str, values: Sequence[Any],
          protocols: Sequence[str] = ("optimistic",),
          reseed: bool = True, jobs: int = 1,
          cache: ResultCache | None = None,
          progress: ProgressArg = None) -> SweepResult:
    """Run the sweep; each point gets seed ``base.seed + index`` if ``reseed``.

    Sweeping ``param="seed"`` never reseeds — the swept values must win
    (reseeding would silently clobber every point with ``base.seed + i``).
    With ``jobs > 1`` or a ``cache``, runs go through
    :func:`repro.harness.executor.run_many` and results are
    :class:`RunSummary` (any failed run raises with its traceback);
    otherwise the serial path returns live :class:`RunResult` objects.
    """
    result = SweepResult(param=param)
    configs: list[ExperimentConfig] = []
    slots: list[tuple[int, str]] = []
    for i, value in enumerate(values):
        cfg = set_param(base, param, value)
        if reseed and param != "seed":
            cfg = cfg.derive(seed=base.seed + i)
        result.points.append(SweepPoint(value=value))
        for name in protocols:
            configs.append(cfg.derive(protocol=name))
            slots.append((i, name))
    if jobs <= 1 and cache is None:
        from .runner import run_experiment
        for (i, name), cfg in zip(slots, configs):
            result.points[i].results[name] = run_experiment(cfg)
    else:
        outcomes = run_many(configs, jobs=jobs, cache=cache,
                            progress=progress)
        raise_failures(outcomes)
        for (i, name), outcome in zip(slots, outcomes):
            assert isinstance(outcome, RunSummary)
            result.points[i].results[name] = outcome
    return result
