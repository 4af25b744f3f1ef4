"""Tests for delay distributions and the delay model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NetworkConfig
from repro.core.errors import ConfigurationError
from repro.network.delays import (
    ConstantDelay,
    DelaySampler,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    NormalDelay,
    PoissonDelay,
    UniformDelay,
    available_distributions,
    make_sampler,
    register_distribution,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSamplers:
    def test_constant(self, rng):
        sampler = ConstantDelay(100.0)
        assert all(sampler.sample(rng) == 100.0 for _ in range(10))

    @pytest.mark.parametrize(
        "cls", [UniformDelay, NormalDelay, LogNormalDelay]
    )
    def test_mean_and_std_match_target(self, cls, rng):
        sampler = cls(200.0, 40.0)
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(200.0, rel=0.05)
        assert samples.std() == pytest.approx(40.0, rel=0.10)

    def test_exponential_mean(self, rng):
        sampler = ExponentialDelay(150.0)
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(150.0, rel=0.05)

    def test_poisson_mean_and_integrality(self, rng):
        sampler = PoissonDelay(30.0)
        samples = [sampler.sample(rng) for _ in range(5_000)]
        assert np.mean(samples) == pytest.approx(30.0, rel=0.1)
        assert all(s == int(s) for s in samples)

    def test_lognormal_requires_positive_mean(self):
        with pytest.raises(ConfigurationError):
            LogNormalDelay(0.0, 10.0)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ConfigurationError):
            ExponentialDelay(0.0)

    def test_describe_mentions_parameters(self):
        assert "250" in NormalDelay(250.0, 50.0).describe()


class TestRegistry:
    def test_builtins_available(self):
        names = available_distributions()
        for name in ("constant", "uniform", "normal", "lognormal", "exponential", "poisson"):
            assert name in names

    def test_make_sampler_from_config(self):
        sampler = make_sampler(NetworkConfig(distribution="lognormal", mean=100, std=20))
        assert isinstance(sampler, LogNormalDelay)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sampler(NetworkConfig(distribution="no-such"))

    def test_register_custom_and_reject_duplicates(self):
        register_distribution("test-fixed-7", lambda mean, std: ConstantDelay(7.0))
        sampler = make_sampler(NetworkConfig(distribution="test-fixed-7", mean=1.0))
        assert sampler.sample(np.random.default_rng(0)) == 7.0
        with pytest.raises(ConfigurationError):
            register_distribution("test-fixed-7", lambda mean, std: ConstantDelay(8.0))


class TestDelayModel:
    def test_min_delay_floor(self, rng):
        config = NetworkConfig(distribution="normal", mean=5.0, std=100.0, min_delay=2.0)
        model = DelayModel(config, rng)
        assert all(model.sample_delay(0.0) >= 2.0 for _ in range(500))

    def test_max_delay_cap(self, rng):
        config = NetworkConfig(mean=100.0, std=500.0, max_delay=150.0)
        model = DelayModel(config, rng)
        assert all(model.sample_delay(0.0) <= 150.0 for _ in range(500))

    def test_unbounded_when_no_cap(self, rng):
        config = NetworkConfig(mean=100.0, std=100.0)
        model = DelayModel(config, rng)
        assert max(model.sample_delay(0.0) for _ in range(2_000)) > 300.0

    def test_pre_gst_inflation(self, rng):
        config = NetworkConfig(
            distribution="constant", mean=100.0, std=0.0,
            gst=1_000.0, pre_gst_factor=10.0, max_delay=120.0,
        )
        model = DelayModel(config, rng)
        # Before GST: inflated and NOT capped.
        assert model.sample_delay(0.0) == 1000.0
        # After GST: normal and capped.
        assert model.sample_delay(1_000.0) == 100.0

    def test_describe_mentions_regime(self):
        config = NetworkConfig(max_delay=500.0)
        model = DelayModel(config, np.random.default_rng(0))
        assert "bounded" in model.describe()
        unbounded = DelayModel(NetworkConfig(), np.random.default_rng(0))
        assert "async" in unbounded.describe()


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=1e4),
    std=st.floats(min_value=0.0, max_value=1e3),
    now=st.floats(min_value=0, max_value=1e6),
)
def test_property_delays_respect_floor(mean, std, now):
    config = NetworkConfig(mean=mean, std=std, min_delay=1.0)
    model = DelayModel(config, np.random.default_rng(0))
    for _ in range(20):
        assert model.sample_delay(now) >= 1.0


class _TriangularDelay(DelaySampler):
    """A custom sampler that keeps the default, looping ``sample_batch``."""

    def __init__(self, mean: float, std: float) -> None:
        self.mean = float(mean)
        self.std = float(std)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.triangular(self.mean - self.std, self.mean, self.mean + self.std))


if "test-triangular" not in available_distributions():
    register_distribution("test-triangular", _TriangularDelay)


class TestBatchedDraws:
    """``sample_delays(now, k)`` is stream-identical to k ``sample_delay(now)``
    calls — the contract that lets the broadcast fast tiers draw a whole
    fan-out in one call without changing any run."""

    @pytest.mark.parametrize(
        "distribution",
        ["constant", "uniform", "normal", "lognormal", "exponential", "poisson",
         "test-triangular"],
    )
    @pytest.mark.parametrize("now", [0.0, 400.0, 500.0, 2_000.0])
    def test_batch_equals_successive_scalar_draws(self, distribution, now):
        config = NetworkConfig(
            distribution=distribution, mean=100.0, std=30.0,
            min_delay=80.0, max_delay=120.0, gst=500.0, pre_gst_factor=1.5,
        )
        scalar = DelayModel(config, np.random.default_rng(7))
        batched = DelayModel(config, np.random.default_rng(7))
        for size in (1, 5, 63):
            expected = [scalar.sample_delay(now) for _ in range(size)]
            assert batched.sample_delays(now, size).tolist() == expected
        # Both generators were advanced by exactly the same amount.
        assert scalar.sample_delay(now) == batched.sample_delays(now, 1)[0]

    def test_custom_sampler_inherits_the_looping_batch(self):
        assert "sample_batch" not in vars(_TriangularDelay)
        sampler = make_sampler(NetworkConfig(distribution="test-triangular", mean=10.0, std=2.0))
        assert isinstance(sampler, _TriangularDelay)

    def test_bounds_bind_in_the_batch(self):
        config = NetworkConfig(
            distribution="normal", mean=100.0, std=60.0,
            min_delay=80.0, max_delay=120.0, gst=500.0, pre_gst_factor=1.5,
        )
        model = DelayModel(config, np.random.default_rng(3))
        after = model.sample_delays(600.0, 2_000)
        assert after.min() == 80.0 and after.max() == 120.0
        # Before GST the cap is lifted (inflated samples), the floor is not.
        before = model.sample_delays(0.0, 2_000)
        assert before.min() == 80.0 and before.max() > 120.0
