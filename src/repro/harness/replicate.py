"""Statistical replication: run a configuration across many seeds.

Single-seed results can mislead (a lucky workload, a pathological phase
alignment); the replication harness runs one configuration under a seed
batch and reports each metric as mean ± a Student-t confidence interval —
the form a paper's table would use.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class MetricCI:
    """Mean with a two-sided confidence interval."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def confidence_interval(values: Sequence[float],
                        confidence: float = 0.95) -> MetricCI:
    """Student-t CI of the mean (half-width 0 for n<2 or zero variance)."""
    import numpy as np
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    mean = float(arr.mean())
    if arr.size < 2 or float(arr.std(ddof=1)) == 0.0:
        return MetricCI(mean=mean, half_width=0.0, n=int(arr.size),
                        confidence=confidence)
    # Imported here: scipy is an optional extra, and nothing else on the
    # import path of ``repro run`` / ``repro serve`` needs it.
    try:
        from scipy import stats
    except ImportError as exc:
        raise ImportError(
            "a Student-t confidence interval needs scipy, which is not "
            "a core dependency: pip install 'repro[dev]'") from exc
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t = float(stats.t.ppf((1 + confidence) / 2, df=arr.size - 1))
    return MetricCI(mean=mean, half_width=t * sem, n=int(arr.size),
                    confidence=confidence)


def replicate(cfg: ExperimentConfig, seeds: Sequence[int],
              jobs: int = 1, cache: ResultCache | None = None,
              progress: ProgressArg = None
              ) -> list[RunOutcome]:
    """Run ``cfg`` once per seed.

    With ``jobs > 1`` or a ``cache`` the batch fans out through
    :func:`repro.harness.executor.run_many` and returns picklable
    :class:`RunSummary` objects (identical metrics to the serial live
    :class:`RunResult` path; a failed seed raises with its traceback).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    configs = [cfg.derive(seed=int(s)) for s in seeds]
    if jobs <= 1 and cache is None:
        from .runner import run_experiment
        return [run_experiment(c) for c in configs]
    outcomes = run_many(configs, jobs=jobs, cache=cache, progress=progress)
    raise_failures(outcomes)
    return [o for o in outcomes if isinstance(o, RunSummary)]


def replication_summary(results: Sequence[RunOutcome],
                        metrics: Sequence[str],
                        confidence: float = 0.95) -> dict[str, MetricCI]:
    """Per-metric CI over a replication batch.

    ``metrics`` are keys of ``RunMetrics.as_dict()``.
    """
    out: dict[str, MetricCI] = {}
    for metric in metrics:
        values = [float(r.metrics.as_dict()[metric]) for r in results]
        out[metric] = confidence_interval(values, confidence=confidence)
    return out


def replication_table(summaries: dict[str, dict[str, MetricCI]],
                      metrics: Sequence[str], title: str = "") -> Table:
    """Rows = configurations (e.g. protocols), cells = ``mean ± hw``."""
    t = Table("configuration", *metrics, title=title)
    for name, summary in summaries.items():
        t.add_row(name, *(str(summary[m]) for m in metrics))
    return t
