"""Experiment memoization: correctness, accounting, and fine-tune reuse."""

from dataclasses import replace

import pytest

from repro.app.service import Deployment
from repro.app.workloads import build_memcached, build_redis
from repro.core.features import extract_service_features
from repro.core.finetune import fine_tune
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import (
    ExperimentCache,
    ExperimentConfig,
    run_experiment,
    sweep_load,
)
from repro.tracing.tracer import Tracer
from repro.util import ConfigurationError

FAST_BUDGET = ProfilingBudget(
    sampled_requests=8, max_accesses_per_spec=512,
    max_istream_per_block=2048, branch_outcomes_per_site=128,
    max_sites_per_population=8, dep_samples_per_block=48,
    profile_duration_s=0.015,
)


@pytest.fixture(scope="module")
def memcached_point():
    deployment = Deployment.single(build_memcached())
    load = LoadSpec.open_loop(100000)
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)
    return deployment, load, config


class TestExperimentCache:
    def test_warm_equals_cold(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache()
        cold = cache.run(deployment, load, config)
        warm = cache.run(deployment, load, config)
        uncached = run_experiment(deployment, load, config)
        for result in (warm, uncached):
            assert (result.service("memcached").snapshot()
                    == cold.service("memcached").snapshot())
            assert result.throughput == cold.throughput
            assert result.latency_ms(99) == cold.latency_ms(99)

    def test_hit_miss_accounting(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache()
        cache.run(deployment, load, config)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.run(deployment, load, config)
        cache.run(deployment, load, config)
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_distinct_inputs_miss(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache()
        cache.run(deployment, load, config)
        cache.run(deployment, load, replace(config, seed=6))
        cache.run(deployment, LoadSpec.open_loop(50000), config)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 3
        assert len(cache) == 3

    def test_hit_returns_isolated_copy(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache()
        cache.run(deployment, load, config)
        warm = cache.run(deployment, load, config)
        warm.service("memcached").requests += 1_000_000
        again = cache.run(deployment, load, config)
        assert again.service("memcached").requests < 1_000_000

    def test_traced_runs_bypass(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache()
        traced = replace(config, tracer=Tracer())
        cache.run(deployment, load, traced)
        cache.run(deployment, load, traced)
        assert cache.stats.bypasses == 2
        assert cache.stats.lookups == 0
        assert len(cache) == 0

    def test_lru_eviction(self, memcached_point):
        deployment, load, config = memcached_point
        cache = ExperimentCache(max_entries=1)
        cache.run(deployment, load, config)
        cache.run(deployment, load, replace(config, seed=6))
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # The first entry was evicted: running it again is a miss.
        cache.run(deployment, load, config)
        assert cache.stats.misses == 3

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            ExperimentCache(max_entries=0)

    def test_sweep_load_uses_cache(self, memcached_point):
        deployment, _load, config = memcached_point
        cache = ExperimentCache()
        loads = [LoadSpec.open_loop(40000), LoadSpec.open_loop(80000)]
        first = sweep_load(deployment, loads, config, cache=cache)
        second = sweep_load(deployment, loads, config, cache=cache)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 2
        assert [r.throughput for r in first] == [
            r.throughput for r in second]


class TestFineTuneWithCache:
    def test_repeat_fine_tune_hits_cache(self):
        deployment = Deployment.single(build_redis())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.015,
                                  seed=5)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(4),
                                     config, budget=FAST_BUDGET)
        features = extract_service_features(profile.artifacts("redis"))
        cache = ExperimentCache()
        cold = fine_tune(features, platform_config=config,
                         max_iterations=3, cache=cache)
        assert cache.stats.misses > 0
        misses_after_cold = cache.stats.misses
        warm = fine_tune(features, platform_config=config,
                         max_iterations=3, cache=cache)
        # The repeated run revisits the same knob trajectory: every
        # measurement is served from cache, and the outcome is identical.
        assert cache.stats.hits > 0
        assert cache.stats.misses == misses_after_cold
        assert warm.knobs == cold.knobs
        assert warm.error_history == cold.error_history
        assert warm.converged == cold.converged
