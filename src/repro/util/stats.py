"""Statistics helpers used across the simulator and the profilers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.util.errors import ConfigurationError


def percentile(samples: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0..100) of ``samples``.

    Uses linear interpolation, matching ``numpy.percentile`` defaults.
    Raises :class:`ConfigurationError` for empty input so callers cannot
    silently propagate NaNs into results tables.
    """
    if len(samples) == 0:
        raise ConfigurationError("cannot take a percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Return the weighted arithmetic mean of ``values``."""
    if len(values) != len(weights):
        raise ConfigurationError("values and weights must have equal length")
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ConfigurationError("weights must sum to a positive value")
    return float(np.dot(values, weights) / total)


def geometric_mean(values: Iterable[float]) -> float:
    """Return the geometric mean of strictly positive ``values``."""
    logs = []
    for value in values:
        if value <= 0.0:
            raise ConfigurationError("geometric mean requires positive values")
        logs.append(math.log(value))
    if not logs:
        raise ConfigurationError("geometric mean of empty sequence")
    return math.exp(sum(logs) / len(logs))


def relative_error(actual: float, synthetic: float) -> float:
    """Return ``|synthetic - actual| / |actual|``.

    This is the error metric the paper reports (e.g. "average errors ...
    being 4.1%, 9.9%, ..."). A zero actual with a zero synthetic is a
    perfect match (0.0); a zero actual with nonzero synthetic is infinite
    error.
    """
    if actual == 0.0:
        return 0.0 if synthetic == 0.0 else math.inf
    return abs(synthetic - actual) / abs(actual)


@dataclass
class OnlineStats:
    """Streaming mean/variance/min/max accumulator (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance of the observations so far."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to seeing both streams."""
        if self.count == 0:
            return OnlineStats(
                other.count, other.mean, other._m2, other.minimum, other.maximum
            )
        if other.count == 0:
            return OnlineStats(
                self.count, self.mean, self._m2, self.minimum, self.maximum
            )
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / count
        return OnlineStats(
            count, mean, m2, min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
        )


@dataclass
class Histogram:
    """A categorical histogram with helpers for normalisation and sampling.

    Used throughout the profilers: instruction-mix distributions, syscall
    distributions, branch-rate distributions, dependency-distance bins.
    """

    counts: Dict[object, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Cached (n_keys, keys, probs, cdf) for sampling; rebuilding the
        # repr-sorted key order per draw dominated hot sampling loops.
        self._sampler: tuple | None = None

    def add(self, key: object, weight: float = 1.0) -> None:
        """Add ``weight`` observations of ``key``."""
        self.counts[key] = self.counts.get(key, 0.0) + weight
        self._sampler = None

    def update(self, other: Mapping[object, float]) -> None:
        """Fold another mapping of counts into this histogram."""
        for key, weight in other.items():
            self.add(key, weight)

    @property
    def total(self) -> float:
        """Sum of all counts."""
        return float(sum(self.counts.values()))

    def probability(self, key: object) -> float:
        """Empirical probability of ``key`` (0.0 if unseen)."""
        total = self.total
        if total == 0.0:
            return 0.0
        return self.counts.get(key, 0.0) / total

    def normalized(self) -> Dict[object, float]:
        """Return the distribution as probabilities summing to 1."""
        total = self.total
        if total == 0.0:
            return {}
        return {key: count / total for key, count in self.counts.items()}

    def _ensure_sampler(self) -> tuple:
        sampler = getattr(self, "_sampler", None)
        if sampler is not None and sampler[0] == len(self.counts):
            return sampler
        items = sorted(self.counts.items(), key=lambda item: repr(item[0]))
        keys = [key for key, _ in items]
        probs = np.array([count for _, count in items], dtype=float)
        total = probs.sum()
        if total == 0.0:
            raise ConfigurationError("cannot sample from an empty histogram")
        probs = probs / total
        # Mirror numpy Generator.choice(p=...) exactly: cumsum then
        # renormalise by the last entry, so cached sampling draws the
        # same indices (to the last ulp) as the choice() it replaced.
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        sampler = (len(self.counts), keys, probs, cdf)
        self._sampler = sampler
        return sampler

    def keys_and_probs(self) -> tuple[List[object], np.ndarray]:
        """Return parallel (keys, probabilities) arrays, sorted by key repr.

        Sorting makes sampling deterministic for a fixed seed regardless of
        insertion order.
        """
        _, keys, probs, _ = self._ensure_sampler()
        return list(keys), probs.copy()

    def sample(self, rng: np.random.Generator, size: int = 1) -> List[object]:
        """Draw ``size`` iid samples from the empirical distribution.

        Consumes ``rng.random(size)`` — the same stream as the
        ``rng.choice`` formulation it replaces — and inverts the cached
        CDF, so fixed seeds keep producing identical draws.
        """
        return self.keys_at(rng.random(size))

    def keys_at(self, uniforms: np.ndarray) -> List[object]:
        """The key whose slice of the cached CDF holds each uniform draw.

        :meth:`sample` is ``keys_at(rng.random(size))``; a caller that
        draws one batch for several histograms inverts its own slices.
        """
        _, keys, _, cdf = self._ensure_sampler()
        indices = np.minimum(
            np.searchsorted(cdf, uniforms, side="right"), len(keys) - 1)
        return [keys[i] for i in indices]

    def most_common(self, n: int | None = None) -> List[tuple[object, float]]:
        """Return (key, count) pairs sorted by descending count."""
        ranked = sorted(self.counts.items(), key=lambda item: (-item[1], repr(item[0])))
        return ranked if n is None else ranked[:n]

    def tv_distance(self, other: "Histogram") -> float:
        """Total-variation distance between two histograms' distributions."""
        mine = self.normalized()
        theirs = other.normalized()
        keys = set(mine) | set(theirs)
        return 0.5 * sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys)
