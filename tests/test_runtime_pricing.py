"""Unit tests for pricing keys, the block pricer, and service metrics."""

import pytest

from repro.hw import PLATFORM_A, PLATFORM_B, BlockSpec
from repro.hw.core import BlockTiming
from repro.hw.ir import DependencyProfile
from repro.hw.topdown import TopDownBreakdown
from repro.runtime import BlockPricer, PricingKey, ServiceMetrics
from repro.util.errors import ConfigurationError


def _key(**overrides):
    defaults = dict(
        cold=False, concurrency=1, smt_contention=1.0,
        cache_factors=(1.0, 1.0, 1.0, 1.0),
        code_reuse_bytes=64 * 1024, static_branch_sites=1024,
    )
    defaults.update(overrides)
    return PricingKey.build(**defaults)


def _block(n=1000):
    return BlockSpec(name="b", iform_counts={"ADD_r64_r64": float(n)},
                     deps=DependencyProfile(raw={64: 1.0}))


class TestPricingKey:
    def test_concurrency_bucketed_to_pow2(self):
        assert _key(concurrency=5).concurrency_bucket == 8
        assert _key(concurrency=8).concurrency_bucket == 8

    def test_code_reuse_quantised_to_64kb_steps(self):
        key = _key(code_reuse_bytes=680 * 1024)
        assert key.code_reuse_kb % 64 == 0
        assert abs(key.code_reuse_kb - 680) <= 32

    def test_factors_rounded(self):
        key = _key(cache_factors=(0.333, 0.666, 0.999, 0.501))
        assert key.l1i_factor == pytest.approx(0.33)
        assert key.llc_factor == pytest.approx(0.5)

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ConfigurationError):
            _key(concurrency=0)

    def test_keys_hashable_and_equal(self):
        assert _key() == _key()
        assert hash(_key()) == hash(_key())


class TestBlockPricer:
    def test_memoisation(self):
        pricer = BlockPricer(PLATFORM_A)
        block = _block()
        first = pricer.price(block, _key())
        second = pricer.price(block, _key())
        # one table row per pricing; a repeat rebuilds an equal timing
        assert first == second
        assert pricer.row(block, _key()) == 0
        assert pricer.cache_size == 1

    def test_distinct_keys_priced_separately(self):
        pricer = BlockPricer(PLATFORM_A)
        block = _block()
        warm = pricer.price(block, _key(cold=False))
        cold = pricer.price(block, _key(cold=True,
                                        code_reuse_bytes=2 * 1024 * 1024))
        assert cold.cycles >= warm.cycles
        assert pricer.cache_size == 2

    def test_frequency_override_changes_seconds_not_cycles(self):
        base = BlockPricer(PLATFORM_A)
        slow = BlockPricer(PLATFORM_A, frequency_ghz=1.05)
        block = _block()
        assert base.price(block, _key()).cycles == pytest.approx(
            slow.price(block, _key()).cycles, rel=0.05)
        assert slow.seconds(1e9) == pytest.approx(2 * base.seconds(1e9) / 2
                                                  * 2, rel=0.01)

    def test_platforms_price_differently(self):
        block = BlockSpec(
            name="branchy", iform_counts={"JNZ_rel": 500,
                                          "CMP_r64_imm": 500})
        a = BlockPricer(PLATFORM_A).price(block, _key())
        b = BlockPricer(PLATFORM_B).price(block, _key())
        assert a.cycles != b.cycles


class TestServiceMetrics:
    def _metrics(self):
        metrics = ServiceMetrics()
        metrics.absorb(BlockTiming(
            cycles=1000.0, instructions=2000.0, uops=2200.0,
            branches=100.0, branch_mispredictions=5.0,
            l1i_accesses=500.0, l1i_misses=50.0,
            l1d_accesses=400.0, l1d_misses=40.0,
            l2_accesses=90.0, l2_misses=9.0,
            llc_accesses=9.0, llc_misses=3.0,
            memory_bytes=192.0,
            topdown=TopDownBreakdown(2200.0, 400.0, 200.0, 1200.0),
        ))
        metrics.requests = 10
        return metrics

    def test_derived_rates(self):
        metrics = self._metrics()
        assert metrics.ipc == pytest.approx(2.0)
        assert metrics.cpi == pytest.approx(0.5)
        assert metrics.branch_mispredict_rate == pytest.approx(0.05)
        assert metrics.l1i_miss_rate == pytest.approx(0.1)
        assert metrics.l2_miss_rate == pytest.approx(0.1)
        assert metrics.llc_miss_rate == pytest.approx(3 / 9)

    def test_metric_lookup(self):
        metrics = self._metrics()
        assert metrics.metric("ipc") == metrics.ipc
        with pytest.raises(ConfigurationError):
            metrics.metric("tacos")

    def test_mpki(self):
        metrics = self._metrics()
        assert metrics.mpki(metrics.timing.llc_misses) == pytest.approx(1.5)

    def test_instructions_per_request(self):
        assert self._metrics().instructions_per_request == pytest.approx(200)

    def test_empty_metrics_are_zero(self):
        empty = ServiceMetrics()
        assert empty.ipc == 0.0
        assert empty.l1d_miss_rate == 0.0
        assert empty.instructions_per_request == 0.0

    def test_absorb_accumulates(self):
        metrics = self._metrics()
        before = metrics.timing.instructions
        metrics.absorb(BlockTiming(cycles=10.0, instructions=20.0))
        assert metrics.timing.instructions == before + 20.0
