"""Unit tests for latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import (
    BandwidthLatency,
    ConstantLatency,
    EmpiricalLatency,
    ExponentialLatency,
    LogNormalLatency,
    UniformLatency,
)

RNG = np.random.default_rng(0)

ALL_MODELS = [
    ConstantLatency(1.5),
    UniformLatency(0.5, 2.0),
    ExponentialLatency(0.1, 1.0),
    LogNormalLatency(1.0, 0.5),
    BandwidthLatency(0.05, 1e6, jitter=0.1),
    EmpiricalLatency([0.1, 0.2, 0.3]),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestAllModels:
    def test_samples_positive(self, model):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert model.sample(rng, 0, 1, 1000) > 0

    def test_mean_positive(self, model):
        assert model.mean(1000) > 0

    def test_deterministic_given_rng_state(self, model):
        a = [model.sample(np.random.default_rng(7), 0, 1, 100)
             for _ in range(1)]
        b = [model.sample(np.random.default_rng(7), 0, 1, 100)
             for _ in range(1)]
        assert a == b


class TestConstant:
    def test_exact_value(self):
        assert ConstantLatency(2.5).sample(RNG, 0, 1, 0) == 2.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)


class TestUniform:
    def test_within_bounds(self):
        m = UniformLatency(1.0, 3.0)
        rng = np.random.default_rng(2)
        samples = [m.sample(rng, 0, 1, 0) for _ in range(500)]
        assert all(1.0 <= s <= 3.0 for s in samples)

    def test_mean(self):
        assert UniformLatency(1.0, 3.0).mean() == 2.0

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    @pytest.mark.parametrize("low,high", [
        (0.5, 1.5), (0.05, 0.25), (1e-3, 7.0), (2.0, 2.0), (0.1, 0.1 + 1e-9)])
    def test_draws_equal_numpy_uniform_bit_for_bit(self, seed, low, high):
        m = UniformLatency(low, high)
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        a = np.array([m.sample(ours, 0, 1, 0) for _ in range(2000)])
        b = np.array([numpys.uniform(low, high) for _ in range(2000)])
        assert a.tobytes() == b.tobytes()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(0.0, 1.0)


class TestExponential:
    def test_floor_respected(self):
        m = ExponentialLatency(0.5, 1.0)
        rng = np.random.default_rng(3)
        assert all(m.sample(rng, 0, 1, 0) >= 0.5 for _ in range(200))

    def test_empirical_mean_close(self):
        m = ExponentialLatency(0.0, 2.0)
        rng = np.random.default_rng(4)
        samples = np.array([m.sample(rng, 0, 1, 0) for _ in range(5000)])
        assert abs(samples.mean() - 2.0) < 0.15

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialLatency(-1.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialLatency(0.0, 0.0)


class TestLogNormal:
    def test_median_approximately(self):
        m = LogNormalLatency(2.0, 0.3)
        rng = np.random.default_rng(5)
        samples = np.array([m.sample(rng, 0, 1, 0) for _ in range(5000)])
        assert abs(np.median(samples) - 2.0) < 0.15

    def test_mean_formula(self):
        m = LogNormalLatency(1.0, 0.5)
        assert m.mean() == pytest.approx(np.exp(0.125))


class TestBandwidth:
    def test_size_dependence(self):
        m = BandwidthLatency(base=0.1, bandwidth=1000.0, jitter=0.0)
        rng = np.random.default_rng(6)
        assert m.sample(rng, 0, 1, 0) == pytest.approx(0.1)
        assert m.sample(rng, 0, 1, 500) == pytest.approx(0.6)

    def test_mean_includes_half_jitter(self):
        m = BandwidthLatency(base=0.1, bandwidth=1000.0, jitter=0.2)
        assert m.mean(0) == pytest.approx(0.2)


class TestEmpirical:
    def test_resamples_only_observed_values(self):
        m = EmpiricalLatency([0.25, 0.5])
        rng = np.random.default_rng(8)
        assert {m.sample(rng, 0, 1, 0) for _ in range(100)} <= {0.25, 0.5}

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            EmpiricalLatency([])
        with pytest.raises(ValueError):
            EmpiricalLatency([1.0, 0.0])

    def test_mean(self):
        assert EmpiricalLatency([1.0, 3.0]).mean() == 2.0
