"""Tests for the experiment harness: registry, runs, comparisons, sweeps."""

from __future__ import annotations

import pytest

from repro.harness import (
    PROTOCOLS,
    ExperimentConfig,
    compare,
    comparison_table,
    assert_all_consistent,
    run_experiment,
    sweep,
)
from repro.harness.experiment import check_config, check_sweep, set_param


def small_cfg(**kw) -> ExperimentConfig:
    base = dict(n=4, seed=1, horizon=100.0, checkpoint_interval=40.0,
                state_bytes=200_000, timeout=10.0,
                workload_kwargs={"rate": 1.5, "msg_size": 512})
    base.update(kw)
    return ExperimentConfig(**base)


class TestRegistry:
    def test_all_expected_protocols_registered(self):
        assert set(PROTOCOLS) == {
            "optimistic", "chandy-lamport", "koo-toueg", "staggered",
            "plank-staggered", "cic-bcs", "quasi-sync-ms", "uncoordinated"}

    def test_unknown_protocol_raises_with_choices(self):
        with pytest.raises(KeyError, match="choices"):
            run_experiment(small_cfg(protocol="nope"))

    def test_builtin_builders_are_paths_resolved_once(self):
        for spec in PROTOCOLS.values():
            assert isinstance(spec.build, str), spec.name
            assert callable(spec.builder)
            assert spec.builder is spec.builder      # cached, not re-imported

    def test_only_chandy_lamport_needs_fifo(self):
        assert PROTOCOLS["chandy-lamport"].needs_fifo
        assert not any(spec.needs_fifo for name, spec in PROTOCOLS.items()
                       if name != "chandy-lamport")


class TestConfigChecks:
    def test_check_config_needs_no_build(self):
        check_config(small_cfg())
        with pytest.raises(KeyError, match="choices"):
            check_config(small_cfg(protocol="nope"))
        with pytest.raises(ValueError, match="trace_enabled"):
            check_config(small_cfg(verify=True, trace_enabled=False))

    @pytest.mark.parametrize("param", [
        "seed", "n", "flush", "workload_kwargs.rate",
        "machine_kwargs.skip_ck_req"])
    def test_sweepable_params(self, param):
        check_sweep(param, sorted(PROTOCOLS))

    @pytest.mark.parametrize("param, match", [
        ("bogus_field", "unknown config field 'bogus_field'"),
        ("bogus.rate", "unknown config field 'bogus'"),
        ("n.rate", "only a dict field takes a key"),
        ("workload_kwargs.", "only a dict field takes a key"),
    ])
    def test_unsweepable_params(self, param, match):
        with pytest.raises(ValueError, match=match):
            check_sweep(param, ["optimistic"])

    def test_unknown_sweep_protocol(self):
        with pytest.raises(ValueError, match=r"unknown protocols \['nope'\]"):
            check_sweep("seed", ["optimistic", "nope"])

    def test_set_param_sets_a_dict_key_on_a_copy(self):
        base = small_cfg()
        cfg = set_param(base, "workload_kwargs.rate", 3.0)
        assert cfg.workload_kwargs == {"rate": 3.0, "msg_size": 512}
        assert base.workload_kwargs["rate"] == 1.5
        assert set_param(base, "n", 7).n == 7


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_every_protocol_runs_and_drains(self, protocol):
        res = run_experiment(small_cfg(protocol=protocol))
        assert not res.truncated
        assert res.metrics.protocol == protocol
        assert res.metrics.app_messages > 0
        assert res.consistent

    def test_verification_populates_orphans(self):
        res = run_experiment(small_cfg())
        assert res.orphans  # at least S_0
        assert all(v == 0 for v in res.orphans.values())

    def test_verify_false_skips(self):
        res = run_experiment(small_cfg(verify=False))
        assert res.orphans == {}

    def test_network_fifo_set_per_protocol(self):
        res_cl = run_experiment(small_cfg(protocol="chandy-lamport"))
        res_opt = run_experiment(small_cfg())
        assert res_cl.network.fifo
        assert not res_opt.network.fifo

    def test_derive_makes_independent_copy(self):
        cfg = small_cfg()
        other = cfg.derive(n=8)
        assert cfg.n == 4 and other.n == 8
        assert other.workload_kwargs == cfg.workload_kwargs

    def test_metrics_as_dict_roundtrip(self):
        res = run_experiment(small_cfg())
        d = res.metrics.as_dict()
        assert d["protocol"] == "optimistic"
        assert d["app_messages"] == res.metrics.app_messages
        assert "mean_wait" in d and "extra.convergence_mean" in d


class TestCompare:
    def test_same_workload_across_protocols(self):
        results = compare(small_cfg(), protocols=("optimistic", "koo-toueg"))
        a = results["optimistic"].metrics
        b = results["koo-toueg"].metrics
        # Identical seeds drive identical Poisson send schedules; Koo-Toueg
        # may defer (queue) sends but the counts stay equal.
        assert a.app_messages == b.app_messages
        assert_all_consistent(results)

    def test_comparison_table_rows(self):
        results = compare(small_cfg(),
                          protocols=("optimistic", "staggered"))
        table = comparison_table(results, columns=("peak_pending_writers",
                                                   "ctl_messages"))
        assert table.column("protocol") == ["optimistic", "staggered"]
        assert len(table.rows) == 2
        rendered = table.render()
        assert "peak_pending_writers" in rendered


class TestSweep:
    def test_sweep_over_n(self):
        res = sweep(small_cfg(horizon=60.0), "n", [2, 4],
                    protocols=("optimistic",))
        xs, ys = res.series("optimistic", "app_messages")
        assert xs == [2, 4]
        assert all(y > 0 for y in ys)

    def test_sweep_dotted_param(self):
        res = sweep(small_cfg(horizon=60.0), "workload_kwargs.rate",
                    [0.5, 4.0], protocols=("optimistic",))
        xs, ys = res.series("optimistic", "app_messages")
        assert ys[1] > ys[0]

    def test_sweep_table_renders(self):
        res = sweep(small_cfg(horizon=60.0), "n", [2, 3],
                    protocols=("optimistic", "koo-toueg"))
        t = res.table("peak_pending_writers", title="test")
        assert len(t.rows) == 2
        assert t.headers[0] == "n"

    def test_sweep_callable_metric(self):
        res = sweep(small_cfg(horizon=60.0), "n", [2, 3],
                    protocols=("optimistic",))
        xs, ys = res.series("optimistic", lambda r: r.sim.now)
        # Runs drained somewhere past the first checkpoint round.
        assert all(y > 40.0 for y in ys)
