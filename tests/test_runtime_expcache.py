"""Experiment memoization: correctness, accounting, and fine-tune reuse."""

import os
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
    expcache,
    run_experiment,
)
from repro.runtime.expcache import SharedExperimentCache
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


def _same_run(result, expected):
    assert (result.service("memcached").snapshot()
            == expected.service("memcached").snapshot())
    assert result.throughput == expected.throughput
    assert result.latency_ms(99) == expected.latency_ms(99)


class TestSharedExperimentCache:
    """The fleet store keeps results on disk only: every lookup reads
    the entry file, so the directory is the single source of truth."""

    @staticmethod
    def _entries(directory):
        return sorted(os.listdir(directory))

    @staticmethod
    def _disk(cache, field):
        counter = cache.registry.get(expcache.SHARED_CACHE_METRICS[field])
        return int(counter.value(cache=cache.name))

    def test_second_instance_reads_results_from_disk(
            self, memcached_point, tmp_path, monkeypatch):
        deployment, load, config = memcached_point
        fresh = run_experiment(deployment, load, config)
        SharedExperimentCache(str(tmp_path)).run(deployment, load, config)

        def refuse(*_args):
            pytest.fail("the cache simulated")
        monkeypatch.setattr(expcache, "run_experiment", refuse)
        cache = SharedExperimentCache(str(tmp_path))
        first = cache.run(deployment, load, config)
        second = cache.run(deployment, load, config)
        for result in (first, second):
            _same_run(result, fresh)
        assert first is not second
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)
        # Both hits were served by the store, not by process memory.
        assert self._disk(cache, "disk_hits") == 2

    def test_deleted_entry_is_a_miss(self, memcached_point, tmp_path):
        deployment, load, config = memcached_point
        cache = SharedExperimentCache(str(tmp_path))
        cold = cache.run(deployment, load, config)
        (entry,) = self._entries(tmp_path)
        os.remove(tmp_path / entry)
        again = cache.run(deployment, load, config)
        _same_run(again, cold)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        assert self._disk(cache, "disk_stores") == 2
        assert self._entries(tmp_path) == [entry]

    def test_corrupt_entry_is_quarantined_and_remeasured(
            self, memcached_point, tmp_path):
        deployment, load, config = memcached_point
        cache = SharedExperimentCache(str(tmp_path))
        cold = cache.run(deployment, load, config)
        (entry,) = self._entries(tmp_path)
        path = tmp_path / entry
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        again = cache.run(deployment, load, config)
        _same_run(again, cold)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        assert self._entries(tmp_path) == sorted(
            [entry, f"{entry}.quarantined"])
        # The re-measured entry is whole again: the next lookup hits.
        cache.run(deployment, load, config)
        assert cache.stats.hits == 1

    def test_traced_run_bypasses_the_store(self, memcached_point, tmp_path):
        deployment, load, config = memcached_point
        cache = SharedExperimentCache(str(tmp_path))
        cache.run(deployment, load, replace(config, tracer=Tracer()))
        assert cache.stats.bypasses == 1
        assert cache.stats.lookups == 0
        assert self._entries(tmp_path) == []
        # An untraced run then stores the entry, and a repeat reads it
        # back from disk.
        cache.run(deployment, load, config)
        cache.run(deployment, load, config)
        assert len(self._entries(tmp_path)) == 1
        assert self._disk(cache, "disk_hits") == 1


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
