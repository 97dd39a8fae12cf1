"""Seeded random samplers for workload generation.

"We also include a workload generator that simulates many concurrent
clients and companies … The workload generator creates publications and
subscriptions at random" (paper §4).  Reproducibility matters more than
randomness quality here: every sampler is driven by an explicit
``random.Random`` seed, and the skewed distributions (Zipf) that
pub/sub evaluations conventionally use are implemented directly.
"""

from __future__ import annotations

import math
import random
from typing import Generic, Sequence, TypeVar

from repro.errors import WorkloadError

__all__ = [
    "zipf_weights",
    "ZipfSampler",
    "UniformSampler",
    "WeightedSampler",
]

T = TypeVar("T")


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Normalized Zipf probabilities for ranks ``1..n``.

    ``exponent=0`` degenerates to uniform; larger exponents skew mass
    onto early ranks.
    """
    if n < 1:
        raise WorkloadError("zipf_weights requires n >= 1")
    if exponent < 0:
        raise WorkloadError("zipf exponent must be >= 0")
    raw = [1.0 / math.pow(rank, exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler(Generic[T]):
    """Draw items with Zipf-skewed popularity (rank = listed order)."""

    def __init__(self, items: Sequence[T], exponent: float = 1.0, *, rng: random.Random):
        if not items:
            raise WorkloadError("ZipfSampler requires at least one item")
        self._items = list(items)
        self._cdf: list[float] = []
        acc = 0.0
        for weight in zipf_weights(len(self._items), exponent):
            acc += weight
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard floating drift
        self._rng = rng

    def sample(self) -> T:
        u = self._rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return self._items[lo]


class UniformSampler(Generic[T]):
    """Uniform choice over a non-empty sequence."""

    def __init__(self, items: Sequence[T], *, rng: random.Random):
        if not items:
            raise WorkloadError("UniformSampler requires at least one item")
        self._items = list(items)
        self._rng = rng

    def sample(self) -> T:
        return self._rng.choice(self._items)


class WeightedSampler(Generic[T]):
    """Explicitly weighted choice (weights need not be normalized)."""

    def __init__(self, items: Sequence[tuple[T, float]], *, rng: random.Random):
        if not items:
            raise WorkloadError("WeightedSampler requires at least one item")
        total = float(sum(weight for _, weight in items))
        if total <= 0:
            raise WorkloadError("WeightedSampler requires positive total weight")
        self._items = [item for item, _ in items]
        self._cdf: list[float] = []
        acc = 0.0
        for _, weight in items:
            if weight < 0:
                raise WorkloadError("weights must be non-negative")
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self._rng = rng

    def sample(self) -> T:
        u = self._rng.random()
        for index, bound in enumerate(self._cdf):
            if u <= bound:
                return self._items[index]
        return self._items[-1]  # pragma: no cover - floating guard

