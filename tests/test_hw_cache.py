"""Unit + property tests for the cache models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import (
    LINE_BYTES,
    CacheConfig,
    CacheHierarchy,
    SetAssociativeCache,
    generate_access_stream,
    miss_fraction,
)
from repro.hw.ir import MemAccessSpec, MemPattern
from repro.util.errors import ConfigurationError


def _cfg(size, assoc=8, name="test", latency=4):
    return CacheConfig(name=name, size_bytes=size, associativity=assoc,
                       latency_cycles=latency)


class TestCacheConfig:
    def test_num_sets(self):
        assert _cfg(32 * 1024, assoc=8).num_sets == 64

    def test_size_below_line_rejected(self):
        with pytest.raises(ConfigurationError):
            _cfg(32)

    def test_non_divisible_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 1000, 8, 4)

    def test_scaled_keeps_associativity(self):
        scaled = _cfg(32 * 1024, assoc=8).scaled(0.5)
        assert scaled.associativity == 8
        assert scaled.size_bytes == 16 * 1024

    def test_scaled_never_below_one_set(self):
        scaled = _cfg(1024, assoc=8).scaled(0.01)
        assert scaled.num_sets == 1

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            _cfg(1024).scaled(0.0)


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(_cfg(4096))
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(63) is True   # same line
        assert cache.access(64) is False  # next line

    def test_sequential_fit_all_hits_after_warmup(self):
        cache = SetAssociativeCache(_cfg(8192))
        addresses = [i * LINE_BYTES for i in range(64)]  # 4KB working set
        cache.access_many(addresses)     # warm-up: all cold misses
        cache.reset_stats()
        cache.access_many(addresses * 3)
        assert cache.miss_rate == 0.0

    def test_sequential_overflow_all_miss(self):
        # Working set 2x the cache: LRU sequential loop thrashes entirely.
        cache = SetAssociativeCache(_cfg(4096, assoc=64))
        addresses = [i * LINE_BYTES for i in range(128)]  # 8KB
        cache.access_many(addresses)
        cache.reset_stats()
        cache.access_many(addresses * 2)
        assert cache.miss_rate == 1.0

    def test_lru_evicts_least_recent(self):
        # 1 set, 2 ways: A, B, A, C -> C evicts B.
        cache = SetAssociativeCache(CacheConfig("tiny", 128, 2, 1))
        a, b, c = 0, 128, 256  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)
        cache.access(c)
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_flush_clears_state(self):
        cache = SetAssociativeCache(_cfg(4096))
        cache.access(0)
        cache.flush()
        assert cache.accesses == 0
        assert cache.access(0) is False

    def test_miss_rate_idle_is_zero(self):
        assert SetAssociativeCache(_cfg(4096)).miss_rate == 0.0


class TestMissFraction:
    def test_sequential_fits(self):
        spec = MemAccessSpec(wset_bytes=4096, accesses=10)
        assert miss_fraction(spec, 8192) == 0.0

    def test_sequential_overflows(self):
        spec = MemAccessSpec(wset_bytes=16384, accesses=10)
        assert miss_fraction(spec, 8192) == 1.0

    def test_random_partial(self):
        spec = MemAccessSpec(wset_bytes=8192, accesses=10,
                             pattern=MemPattern.RANDOM)
        assert miss_fraction(spec, 4096) == pytest.approx(0.5)

    def test_zero_cache_always_misses(self):
        spec = MemAccessSpec(wset_bytes=64, accesses=1)
        assert miss_fraction(spec, 0) == 1.0

    @given(
        wset_exp=st.integers(6, 24),
        cache_exp=st.integers(6, 24),
        pattern=st.sampled_from(list(MemPattern)),
    )
    def test_fraction_in_unit_interval(self, wset_exp, cache_exp, pattern):
        spec = MemAccessSpec(wset_bytes=2**wset_exp, accesses=1, pattern=pattern)
        frac = miss_fraction(spec, 2**cache_exp)
        assert 0.0 <= frac <= 1.0

    @given(wset_exp=st.integers(7, 20))
    def test_monotone_in_cache_size(self, wset_exp):
        spec = MemAccessSpec(wset_bytes=2**wset_exp, accesses=1,
                             pattern=MemPattern.RANDOM)
        fracs = [miss_fraction(spec, 2**e) for e in range(6, 22)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))


class TestClosedFormMatchesSimulation:
    """The paper's §4.4.4 LRU claim, validated against the simulator."""

    @pytest.mark.parametrize("wset_kb,cache_kb,expected", [
        (4, 8, 0.0),   # fits -> all hit
        (16, 8, 1.0),  # overflows -> all miss
    ])
    def test_sequential_threshold(self, wset_kb, cache_kb, expected):
        spec = MemAccessSpec(wset_bytes=wset_kb * 1024, accesses=1)
        cache = SetAssociativeCache(_cfg(cache_kb * 1024, assoc=16))
        rng = np.random.default_rng(0)
        lines = wset_kb * 1024 // LINE_BYTES
        stream = generate_access_stream(spec, rng, length=lines * 6)
        cache.access_many(stream[:lines])  # warm up one sweep
        cache.reset_stats()
        cache.access_many(stream[lines:])
        assert cache.miss_rate == pytest.approx(expected, abs=0.02)
        assert miss_fraction(spec, cache_kb * 1024) == expected

    def test_random_closed_form_close_to_sim(self):
        spec = MemAccessSpec(wset_bytes=64 * 1024, accesses=1,
                             pattern=MemPattern.RANDOM)
        cache = SetAssociativeCache(_cfg(32 * 1024, assoc=8))
        rng = np.random.default_rng(1)
        stream = generate_access_stream(spec, rng, length=20000)
        cache.access_many(stream[:4000])
        cache.reset_stats()
        cache.access_many(stream[4000:])
        assert cache.miss_rate == pytest.approx(
            miss_fraction(spec, 32 * 1024), abs=0.08
        )


class TestGenerateAccessStream:
    def test_sequential_wraps(self):
        spec = MemAccessSpec(wset_bytes=256, accesses=1)
        stream = generate_access_stream(spec, np.random.default_rng(0), 8)
        assert list(stream) == [0, 64, 128, 192, 0, 64, 128, 192]

    def test_pointer_chase_covers_all_lines(self):
        spec = MemAccessSpec(wset_bytes=1024, accesses=1,
                             pattern=MemPattern.POINTER_CHASE)
        stream = generate_access_stream(spec, np.random.default_rng(0), 16)
        assert len(set(stream.tolist())) == 16

    def test_random_stays_in_wset(self):
        spec = MemAccessSpec(wset_bytes=512, accesses=1,
                             pattern=MemPattern.RANDOM)
        stream = generate_access_stream(spec, np.random.default_rng(0), 100)
        assert stream.max() < 512
        assert stream.min() >= 0

    def test_base_offset_applied(self):
        spec = MemAccessSpec(wset_bytes=128, accesses=1)
        stream = generate_access_stream(spec, np.random.default_rng(0), 4,
                                        base=1 << 20)
        assert stream.min() >= 1 << 20

    def test_zero_length_rejected(self):
        spec = MemAccessSpec(wset_bytes=128, accesses=1)
        with pytest.raises(ConfigurationError):
            generate_access_stream(spec, np.random.default_rng(0), 0)


class TestCacheHierarchy:
    def _hierarchy(self):
        return CacheHierarchy(
            l1i=_cfg(32 * 1024, name="l1i"),
            l1d=_cfg(32 * 1024, name="l1d"),
            l2=_cfg(1024 * 1024, name="l2", latency=14),
            llc=_cfg(8 * 1024 * 1024, assoc=16, name="llc", latency=50),
            memory_latency_cycles=200,
        )

    def test_monotonicity_enforced(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(
                l1i=_cfg(32 * 1024),
                l1d=_cfg(64 * 1024),
                l2=_cfg(32 * 1024),
                llc=_cfg(8 * 1024 * 1024, assoc=16),
                memory_latency_cycles=200,
            )

    def test_effective_sizes_scale(self):
        h = self._hierarchy().with_effective_sizes(llc_factor=0.5)
        assert h.llc.size_bytes == 4 * 1024 * 1024
