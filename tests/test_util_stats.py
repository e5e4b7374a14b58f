"""Unit tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    ConfigurationError,
    Histogram,
    OnlineStats,
    geometric_mean,
    percentile,
    relative_error,
    weighted_mean,
)


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_p99_matches_numpy(self):
        samples = list(range(1000))
        assert percentile(samples, 99) == pytest.approx(np.percentile(samples, 99))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_p0_is_min_p100_is_max(self, samples):
        assert percentile(samples, 0) == pytest.approx(min(samples))
        assert percentile(samples, 100) == pytest.approx(max(samples))


class TestWeightedMean:
    def test_uniform_weights_is_plain_mean(self):
        assert weighted_mean([1, 2, 3], [1, 1, 1]) == pytest.approx(2.0)

    def test_weighting_pulls_toward_heavy_value(self):
        assert weighted_mean([0, 10], [1, 3]) == pytest.approx(7.5)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([1], [1, 2])

    def test_zero_weights_raise(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([1, 2], [0, 0])


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_ten_percent(self):
        assert relative_error(10.0, 11.0) == pytest.approx(0.1)

    def test_zero_actual_zero_synth(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_actual_nonzero_synth_is_inf(self):
        assert relative_error(0.0, 1.0) == math.inf

    @given(st.floats(0.1, 1e6), st.floats(0.1, 1e6))
    def test_nonnegative(self, a, s):
        assert relative_error(a, s) >= 0.0


class TestOnlineStats:
    def test_mean_and_variance_match_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        acc = OnlineStats()
        acc.extend(values)
        assert acc.mean == pytest.approx(np.mean(values))
        assert acc.variance == pytest.approx(np.var(values))
        assert acc.minimum == 1.0
        assert acc.maximum == 9.0

    def test_merge_equivalent_to_concatenation(self):
        left, right = OnlineStats(), OnlineStats()
        left.extend([1.0, 2.0])
        right.extend([3.0, 4.0, 5.0])
        merged = left.merge(right)
        direct = OnlineStats()
        direct.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.variance == pytest.approx(direct.variance)

    def test_merge_with_empty_is_identity(self):
        acc = OnlineStats()
        acc.extend([1.0, 2.0, 3.0])
        merged = acc.merge(OnlineStats())
        assert merged.mean == pytest.approx(acc.mean)
        merged2 = OnlineStats().merge(acc)
        assert merged2.mean == pytest.approx(acc.mean)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_variance_never_negative(self, values):
        acc = OnlineStats()
        acc.extend(values)
        assert acc.variance >= -1e-9


class TestHistogram:
    def test_probability_and_total(self):
        hist = Histogram()
        hist.add("a", 3)
        hist.add("b", 1)
        assert hist.total == 4
        assert hist.probability("a") == pytest.approx(0.75)
        assert hist.probability("missing") == 0.0

    def test_normalized_sums_to_one(self):
        hist = Histogram()
        for key, n in [("x", 2), ("y", 5), ("z", 3)]:
            hist.add(key, n)
        assert sum(hist.normalized().values()) == pytest.approx(1.0)

    def test_sampling_respects_distribution(self):
        hist = Histogram()
        hist.add("common", 99)
        hist.add("rare", 1)
        rng = np.random.default_rng(0)
        samples = hist.sample(rng, size=2000)
        assert samples.count("common") > 1800

    def test_sample_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Histogram().sample(np.random.default_rng(0))

    def test_most_common_ordering(self):
        hist = Histogram()
        hist.update({"a": 1, "b": 5, "c": 3})
        assert [k for k, _ in hist.most_common()] == ["b", "c", "a"]
