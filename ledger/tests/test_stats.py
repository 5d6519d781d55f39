"""The percentile rule and the quartile summary."""

import statistics

import pytest

from ledger import stats


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.top_percentile(19) is None
    assert stats.top_percentile(39) is None
    assert stats.top_percentile(40) == 75      # job_warm_s: 40 jobs -> p75
    assert stats.top_percentile(100) == 90
    assert stats.top_percentile(200) == 95
    assert stats.top_percentile(1000) == 99


def test_summary_matches_the_drivers_quartiles():
    values = [float(v) for v in (5, 1, 9, 3, 7, 2, 8, 4, 6, 10)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    summary = stats.summarize(values)
    assert (summary["q1"], summary["median"], summary["q3"]) == (q1, q2, q3)
    assert summary["n"] == 10 and "p75" not in summary
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    forty = [float(v) for v in range(40)]
    assert stats.summarize(forty)["p75"] == stats.summarize(forty)["q3"]


def test_best_is_the_best_sample():
    values = [5.0, 1.0, 9.0, 3.0]
    assert stats.best(values, "higher") == 9.0
    assert stats.best(values, "lower") == 1.0
    assert stats.best([3.5], "lower") == 3.5
    with pytest.raises(ValueError):
        stats.best([], "lower")
    # A burst that leaves one repeat alone leaves it where it was; the
    # median moves.
    quiet = [1.0] * 12
    burst = [1.0] + [1.5] * 11
    assert stats.best(burst, "lower") == stats.best(quiet, "lower")
    assert statistics.median(burst) > statistics.median(quiet)


def test_single_sample_and_empty():
    assert stats.summarize([3.5]) == {"n": 1, "median": 3.5, "q1": 3.5,
                                      "q3": 3.5}
    with pytest.raises(ValueError):
        stats.summarize([])


def test_fingerprint_and_load_warning():
    fp = stats.fingerprint()
    assert fp["nproc"] >= 1 and fp["python"] and fp["platform"]
    assert stats.load_warning({"nproc": 2, "loadavg_1m": 0.4}) is None
    assert "contended" in stats.load_warning({"nproc": 2, "loadavg_1m": 2.0})
