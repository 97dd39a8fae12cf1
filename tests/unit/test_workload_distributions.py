"""Unit tests for repro.workload.distributions."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import (
    UniformSampler,
    WeightedSampler,
    ZipfSampler,
    zipf_weights,
)


class TestZipfWeights:
    def test_normalized(self):
        assert math.isclose(sum(zipf_weights(100, 1.0)), 1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(10, 1.2)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(math.isclose(w, 0.25) for w in weights)

    def test_rejects_bad_args(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0)
        with pytest.raises(WorkloadError):
            zipf_weights(5, -1)


class TestZipfSampler:
    def test_skew_prefers_early_ranks(self):
        rng = random.Random(0)
        sampler = ZipfSampler(list(range(50)), 1.5, rng=rng)
        samples = [sampler.sample() for _ in range(2000)]
        first_rank_share = samples.count(0) / len(samples)
        assert first_rank_share > 0.25

    def test_reproducible(self):
        a = ZipfSampler("abcdef", 1.0, rng=random.Random(7))
        b = ZipfSampler("abcdef", 1.0, rng=random.Random(7))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_all_items_reachable(self):
        sampler = ZipfSampler([1, 2, 3], 0.5, rng=random.Random(1))
        assert {sampler.sample() for _ in range(500)} == {1, 2, 3}

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler([], rng=random.Random(0))


class TestUniformSampler:
    def test_uniform_coverage(self):
        sampler = UniformSampler([1, 2, 3], rng=random.Random(0))
        assert {sampler.sample() for _ in range(100)} == {1, 2, 3}

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            UniformSampler([], rng=random.Random(0))

    def test_reproducible(self):
        a = UniformSampler("abcdef", rng=random.Random(3))
        b = UniformSampler("abcdef", rng=random.Random(3))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


class TestWeightedSampler:
    def test_respects_weights(self):
        sampler = WeightedSampler([("a", 99.0), ("b", 1.0)], rng=random.Random(0))
        samples = [sampler.sample() for _ in range(500)]
        assert samples.count("a") > 400

    def test_zero_total_rejected(self):
        with pytest.raises(WorkloadError):
            WeightedSampler([("a", 0.0)], rng=random.Random(0))

    def test_negative_weight_rejected(self):
        with pytest.raises(WorkloadError):
            WeightedSampler([("a", 1.0), ("b", -1.0)], rng=random.Random(0))

    def test_zero_weight_item_never_drawn(self):
        sampler = WeightedSampler([("a", 1.0), ("never", 0.0), ("b", 1.0)], rng=random.Random(0))
        assert {sampler.sample() for _ in range(500)} == {"a", "b"}

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            WeightedSampler([], rng=random.Random(0))
