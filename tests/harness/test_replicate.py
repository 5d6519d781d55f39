"""Tests for the statistical replication harness."""

from __future__ import annotations

import sys

import pytest

from repro.harness import (
    ExperimentConfig,
    MetricCI,
    confidence_interval,
    replicate,
    replication_summary,
    replication_table,
)


def small_cfg() -> ExperimentConfig:
    return ExperimentConfig(n=3, horizon=80.0, checkpoint_interval=30.0,
                            state_bytes=50_000, timeout=10.0,
                            workload_kwargs={"rate": 1.5, "msg_size": 256},
                            verify=False)


class TestConfidenceInterval:
    def test_known_values(self):
        ci = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert ci.mean == pytest.approx(3.0)
        assert ci.n == 5
        # t(0.975, df=4) * s/sqrt(5) = 2.7764 * 1.5811/2.2361 ≈ 1.9634
        assert ci.half_width == pytest.approx(1.9634, abs=1e-3)
        assert ci.lo == pytest.approx(3.0 - ci.half_width)
        assert ci.hi == pytest.approx(3.0 + ci.half_width)

    def test_without_scipy_the_error_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)   # import fails
        with pytest.raises(ImportError, match=r"repro\[dev\]"):
            confidence_interval([1.0, 2.0, 3.0])
        # No Student-t quantile needed, no scipy needed.
        assert confidence_interval([2.0, 2.0]).half_width == 0.0

    def test_single_value_has_zero_width(self):
        ci = confidence_interval([7.0])
        assert ci.mean == 7.0 and ci.half_width == 0.0

    def test_zero_variance(self):
        ci = confidence_interval([2.0, 2.0, 2.0])
        assert ci.half_width == 0.0

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert (confidence_interval(values, 0.99).half_width
                > confidence_interval(values, 0.90).half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_str_format(self):
        assert "±" in str(MetricCI(1.0, 0.5, 3, 0.95))


class TestReplication:
    def test_replicate_runs_all_seeds(self):
        results = replicate(small_cfg(), seeds=[1, 2, 3])
        assert len(results) == 3
        assert [r.config.seed for r in results] == [1, 2, 3]
        # Different seeds -> different workloads.
        msgs = {r.metrics.app_messages for r in results}
        assert len(msgs) > 1

    def test_replicate_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(small_cfg(), seeds=[])

    def test_summary_over_batch(self):
        results = replicate(small_cfg(), seeds=[1, 2, 3])
        summary = replication_summary(results,
                                      ["app_messages", "ctl_messages"])
        assert set(summary) == {"app_messages", "ctl_messages"}
        assert summary["app_messages"].n == 3
        assert summary["app_messages"].mean > 0

    def test_table_renders(self):
        results = replicate(small_cfg(), seeds=[1, 2])
        summary = replication_summary(results, ["app_messages"])
        table = replication_table({"optimistic": summary},
                                  ["app_messages"], title="repl")
        out = table.render()
        assert "±" in out and "optimistic" in out
