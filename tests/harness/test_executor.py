"""Tests for the parallel executor, the result cache, and their wiring.

The load-bearing property is that ``jobs`` is a pure wall-clock knob:
every run is deterministic in its config, so the serial path, the pool
path and the cache must all produce identical summaries.
"""

from __future__ import annotations

import json

import pytest

from repro.harness import (
    ExperimentConfig,
    ResultCache,
    RunFailure,
    RunSummary,
    compare,
    comparison_table,
    config_key,
    failures,
    map_jobs,
    raise_failures,
    replicate,
    replication_summary,
    run_experiment,
    run_many,
    sweep,
)
from repro.harness.executor import CACHE_VERSION, JobError


def small_cfg(**kw) -> ExperimentConfig:
    base = dict(n=3, seed=1, horizon=60.0, checkpoint_interval=25.0,
                state_bytes=100_000, timeout=8.0,
                workload_kwargs={"rate": 1.5, "msg_size": 256})
    base.update(kw)
    return ExperimentConfig(**base)


def bad_cfg() -> ExperimentConfig:
    # An unknown flush policy crashes inside the worker's build step.
    return small_cfg(flush="no-such-policy")


class TestRunSummary:
    def test_from_result_round_trip(self):
        res = run_experiment(small_cfg())
        s = RunSummary.from_result(res)
        assert s.config == res.config
        assert s.metrics_dict == res.metrics.as_dict()
        assert s.orphans == res.orphans
        assert s.truncated == res.truncated
        assert s.consistent == res.consistent

    def test_metrics_view_duck_types_run_metrics(self):
        res = run_experiment(small_cfg())
        view = RunSummary.from_result(res).metrics
        assert view.as_dict() == res.metrics.as_dict()
        assert view.app_messages == res.metrics.app_messages
        assert view.mean_wait == res.metrics.wait.mean
        with pytest.raises(AttributeError):
            view.no_such_metric

    def test_picklable(self):
        import pickle

        s = RunSummary.from_result(run_experiment(small_cfg()))
        clone = pickle.loads(pickle.dumps(s))
        assert clone.metrics_dict == s.metrics_dict
        assert clone.config == s.config


class TestRunMany:
    def test_serial_preserves_order_and_matches_run_experiment(self):
        configs = [small_cfg(seed=s) for s in (1, 2, 3)]
        out = run_many(configs, jobs=1)
        assert [o.config.seed for o in out] == [1, 2, 3]
        for cfg, summary in zip(configs, out):
            direct = RunSummary.from_result(run_experiment(cfg))
            assert summary.metrics_dict == direct.metrics_dict
            assert summary.orphans == direct.orphans

    def test_parallel_equals_serial_across_seeds_and_protocols(self):
        configs = [small_cfg(seed=s, protocol=p)
                   for s in (1, 2) for p in ("optimistic", "koo-toueg")]
        serial = run_many(configs, jobs=1)
        parallel = run_many(configs, jobs=2)
        assert len(serial) == len(parallel) == len(configs)
        for a, b in zip(serial, parallel):
            assert isinstance(a, RunSummary) and isinstance(b, RunSummary)
            assert a.metrics_dict == b.metrics_dict
            assert a.orphans == b.orphans
            assert a.truncated == b.truncated

    def test_worker_failure_captured_not_fatal(self):
        out = run_many([bad_cfg(), small_cfg()], jobs=2)
        assert isinstance(out[0], RunFailure)
        assert isinstance(out[1], RunSummary)
        assert "no-such-policy" in out[0].error
        assert "Traceback" in out[0].traceback
        assert out[0].config.flush == "no-such-policy"
        assert failures(out) == [out[0]]
        with pytest.raises(RuntimeError, match="1 experiment run"):
            raise_failures(out)

    def test_progress_callback_fires_per_run(self):
        seen = []
        run_many([small_cfg(seed=s) for s in (1, 2)], jobs=1,
                 progress=lambda done, total, o: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestMapJobs:
    def test_serial_captures_exceptions(self):
        out = map_jobs(_square, [2, "x", 4], jobs=1)
        assert out[0] == 4 and out[2] == 16
        assert isinstance(out[1], JobError)
        assert out[1].item == "x"

    def test_parallel_matches_serial(self):
        assert map_jobs(_square, [1, 2, 3, 4], jobs=2) == [1, 4, 9, 16]


def _square(x):
    return x * x


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = small_cfg()
        assert cache.load(cfg) is None
        first = run_many([cfg], cache=cache)[0]
        assert not first.cached
        second = run_many([cfg], cache=cache)[0]
        assert second.cached
        assert second.metrics_dict == first.metrics_dict
        assert second.orphans == first.orphans

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_many([small_cfg()], cache=cache)
        assert cache.load(small_cfg(seed=99)) is None
        assert cache.load(small_cfg(n=4)) is None

    def test_key_is_stable_and_config_sensitive(self):
        assert config_key(small_cfg()) == config_key(small_cfg())
        assert config_key(small_cfg()) != config_key(small_cfg(seed=2))
        assert (config_key(small_cfg(), salt="a")
                != config_key(small_cfg(), salt="b"))

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = small_cfg()
        run_many([cfg], cache=cache)
        path = cache.path_for(config_key(cfg))
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load(cfg) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = small_cfg()
        run_many([cfg], cache=cache)
        cache.path_for(config_key(cfg)).write_text("{not json")
        assert cache.load(cfg) is None

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        out = run_many([bad_cfg()], cache=cache)
        assert isinstance(out[0], RunFailure)
        assert cache.load(bad_cfg()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_many([small_cfg()], cache=cache)
        assert cache.clear() == 1
        assert cache.load(small_cfg()) is None


class TestHarnessWiring:
    def test_sweep_parallel_table_identical_to_serial(self):
        base = small_cfg()
        serial = sweep(base, "n", [2, 3], protocols=("optimistic",))
        parallel = sweep(base, "n", [2, 3], protocols=("optimistic",),
                         jobs=2)
        metric = "app_messages"
        assert (serial.table(metric).render()
                == parallel.table(metric).render())
        assert serial.series("optimistic", metric) \
            == parallel.series("optimistic", metric)

    def test_sweep_cached_results_marked(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = small_cfg()
        first = sweep(base, "n", [2, 3], cache=cache)
        second = sweep(base, "n", [2, 3], cache=cache)
        assert not any(pt.results["optimistic"].cached
                       for pt in first.points)
        assert all(pt.results["optimistic"].cached
                   for pt in second.points)

    def test_sweep_failure_raises_with_traceback(self):
        with pytest.raises(RuntimeError, match="no-such-policy"):
            sweep(small_cfg(), "flush", ["no-such-policy"], jobs=2)

    def test_compare_parallel_equals_serial(self):
        cfg = small_cfg()
        protocols = ("optimistic", "staggered")
        serial = compare(cfg, protocols=protocols)
        parallel = compare(cfg, protocols=protocols, jobs=2)
        assert set(parallel) == set(protocols)
        for name in protocols:
            assert (parallel[name].metrics.as_dict()
                    == serial[name].metrics.as_dict())
        assert (comparison_table(serial).render()
                == comparison_table(parallel).render())

    def test_replicate_parallel_equals_serial(self):
        cfg = small_cfg(verify=False)
        seeds = [1, 2, 3]
        serial = replicate(cfg, seeds)
        parallel = replicate(cfg, seeds, jobs=2)
        assert [r.config.seed for r in parallel] == seeds
        s1 = replication_summary(serial, ["app_messages"])
        s2 = replication_summary(parallel, ["app_messages"])
        assert s1["app_messages"].mean == s2["app_messages"].mean
        assert s1["app_messages"].half_width == s2["app_messages"].half_width


class TestSweepSeedRegression:
    def test_sweeping_seed_keeps_swept_values(self):
        # Regression: reseed=True used to clobber each point's swept seed
        # with base.seed + i, making a seed sweep run the same seed twice.
        res = sweep(small_cfg(seed=0), "seed", [10, 20])
        seeds = [pt.results["optimistic"].config.seed for pt in res.points]
        assert seeds == [10, 20]

    def test_other_params_still_reseed_per_point(self):
        res = sweep(small_cfg(seed=5), "n", [2, 3])
        seeds = [pt.results["optimistic"].config.seed for pt in res.points]
        assert seeds == [5, 6]

    def test_reseed_false_keeps_base_seed(self):
        res = sweep(small_cfg(seed=5), "n", [2, 3], reseed=False)
        seeds = [pt.results["optimistic"].config.seed for pt in res.points]
        assert seeds == [5, 5]


class TestLintSuppressionAudit:
    def test_harness_has_no_suppressions(self):
        # Nothing in the harness reads the wall clock any more (the
        # performance ledger does the timing, outside src/), so the
        # package must lint clean without a single allow[...] comment.
        from repro.verify import lint_paths

        report = lint_paths("src/repro/harness")
        assert report.clean, [str(f) for f in report.findings]
        assert not report.suppressed, [str(f) for f in report.suppressed]
