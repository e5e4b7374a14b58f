"""Unit tests for the multi-tenancy contention model."""

import pytest

from repro.hw import PLATFORM_A
from repro.hw.contention import (
    CoRunner,
    ContentionFactors,
    contention_factors,
)
from repro.runtime.pricing import BlockPricer, PricingKey
from repro.util.errors import ConfigurationError


class TestCoRunner:
    def test_valid_levels(self):
        for level in ("ht", "l1d", "l2", "llc", "net", "disk"):
            CoRunner(level)

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            CoRunner("gpu")

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            CoRunner("llc", intensity=1.5)


class TestContentionFactors:
    def test_no_corunners_is_identity(self):
        factors = contention_factors(1e6, [])
        assert factors == ContentionFactors()

    def test_ht_spinner_raises_smt_contention(self):
        factors = contention_factors(
            1e6, [CoRunner("ht", same_physical_core=True)])
        assert factors.smt_contention == 2.0
        assert factors.llc_factor == 1.0

    def test_ht_off_core_has_no_effect(self):
        factors = contention_factors(
            1e6, [CoRunner("ht", same_physical_core=False)])
        assert factors.smt_contention == 1.0

    def test_l1d_thrasher_halves_l1(self):
        factors = contention_factors(
            1e6, [CoRunner("l1d", footprint_bytes=64 * 1024,
                           same_physical_core=True)])
        assert factors.l1d_factor < 1.0

    def test_llc_antagonist_capacity_proportional(self):
        small_victim = contention_factors(
            4e6, [CoRunner("llc", footprint_bytes=64e6)])
        big_victim = contention_factors(
            64e6, [CoRunner("llc", footprint_bytes=64e6)])
        assert small_victim.llc_factor < big_victim.llc_factor

    def test_net_hog_halves_bandwidth(self):
        factors = contention_factors(1e6, [CoRunner("net")])
        assert factors.net_share == pytest.approx(0.5)

    def test_multiple_corunners_compose(self):
        factors = contention_factors(1e6, [
            CoRunner("ht", same_physical_core=True),
            CoRunner("llc", footprint_bytes=64e6),
            CoRunner("net"),
        ])
        assert factors.smt_contention == 2.0
        assert factors.llc_factor < 1.0
        assert factors.net_share < 1.0


class TestApplyContention:
    """Contention factors degrade the context a block is priced in."""

    @staticmethod
    def _context(factors):
        key = PricingKey.build(
            cold=False, concurrency=1,
            smt_contention=factors.smt_contention,
            cache_factors=(factors.l1i_factor, factors.l1d_factor,
                           factors.l2_factor, factors.llc_factor),
            code_reuse_bytes=0.0, static_branch_sites=1)
        return BlockPricer(PLATFORM_A).context_for(key)

    def test_cache_capacities_scale(self):
        ctx = PLATFORM_A.context()
        factors = ContentionFactors(llc_factor=0.5, smt_contention=1.5)
        degraded = self._context(factors)
        assert degraded.caches.llc.size_bytes < ctx.caches.llc.size_bytes
        assert degraded.smt_contention == 1.5

    def test_identity_factors_keep_sizes(self):
        ctx = PLATFORM_A.context()
        degraded = self._context(ContentionFactors())
        assert degraded.caches.llc.size_bytes == ctx.caches.llc.size_bytes
