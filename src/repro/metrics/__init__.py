"""Metric extraction, summary statistics and table rendering.

Names load on first use (:mod:`repro._lazy`): a table over cached
summaries needs :mod:`~repro.metrics.report` (stdlib only), not the
collectors, which import the simulator and numpy.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .collectors import RunMetrics, collect
    from .report import Table, bar_chart, kv_block, series
    from .runreport import render_run_report
    from .stats import (
        Summary,
        ratio,
        step_series_max,
        step_series_time_average,
    )

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "RunMetrics": "collectors",
    "collect": "collectors",
    "Table": "report",
    "bar_chart": "report",
    "kv_block": "report",
    "series": "report",
    "render_run_report": "runreport",
    "Summary": "stats",
    "ratio": "stats",
    "step_series_max": "stats",
    "step_series_time_average": "stats",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "RunMetrics",
    "Summary",
    "Table",
    "bar_chart",
    "collect",
    "kv_block",
    "ratio",
    "render_run_report",
    "series",
    "step_series_max",
    "step_series_time_average",
]
