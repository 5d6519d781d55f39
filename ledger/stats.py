"""Noise discipline, done once: every workload summarizes through here.

Every timing is summarized as median + quartiles + n, never as a mean;
warm-ups are discarded by the workloads before samples reach this
module; the host fingerprint travels with every output.  GC stays
enabled throughout (docs/PERFORMANCE.md: the program runs with it on).
No parallel-speedup number is computed anywhere in the ledger.

An end-to-end cell's ``value`` — the one number a pass hands the driver —
is the *best* of the pass's samples (:func:`best`), not their median.  On
the shared host the ledger is judged on, a neighbour can only slow a
repeat down, for seconds at a time: the median of a pass moves with how
much of the pass a burst covered, while the best repeat stays put as long
as one repeat ran undisturbed (the reasoning of ``timeit``'s documentation:
higher values are not variability in the program's speed but other
processes interfering).  Measured under a synthetic bursty neighbour, the
ten-pass spread of the ring workload was 22 % for the median, 6 % for the
better quartile and 6 % for the best; of the live workload 39 %, 12 % and
9 %.  The median, the quartiles and n travel with every value, so what
the best hides (a change that only adds slow repeats) is still on record.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from typing import Any, Sequence

#: Percentiles ``summarize`` may add above the median, highest first.
_PERCENTILES = (99, 95, 90, 75)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if median is)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def best(values: Sequence[float], better: str) -> float:
    """The best sample: the largest where higher is better, the smallest
    where lower is (module docstring)."""
    if not values:
        raise ValueError("no samples")
    return max(values) if better == "higher" else min(values)


def top_percentile(n: int) -> int | None:
    """The highest percentile with at least ten samples beyond it.

    choosing-metrics §1: a percentile is reported only when ten or more
    samples lie above it, so 40 samples give p75 and 19 give none.
    """
    for p in _PERCENTILES:
        if n * (100 - p) >= 10 * 100:
            return p
    return None


def summarize(values: Sequence[float]) -> dict[str, Any]:
    """Median, quartiles, n, and the percentile the sample count allows."""
    q1, q2, q3 = quartiles(values)
    out: dict[str, Any] = {"n": len(values), "median": q2,
                           "q1": q1, "q3": q3}
    p = top_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def fingerprint() -> dict[str, Any]:
    """Where a number was recorded: cores, interpreter, platform, load."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def load_warning(fp: dict[str, Any]) -> str | None:
    """A warning when the box was already busy as measurement started."""
    if fp["loadavg_1m"] >= fp["nproc"]:
        return (f"1-min loadavg {fp['loadavg_1m']:.2f} >= nproc "
                f"{fp['nproc']} at start: timings are contended")
    return None
