"""Unit tests for the fine-tuning loop (§4.5)."""

import math

import pytest

from repro.app.service import Deployment
from repro.app.workloads import build_redis
from repro.core import TuningKnobs, extract_service_features, fine_tune
from repro.core.finetune import FineTuneResult
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig
from repro.util.errors import ConfigurationError

FAST_BUDGET = ProfilingBudget(sampled_requests=6, max_accesses_per_spec=384,
                              max_istream_per_block=1024,
                              branch_outcomes_per_site=96,
                              max_sites_per_population=6,
                              dep_samples_per_block=32,
                              profile_duration_s=0.012)


@pytest.fixture(scope="module")
def redis_features():
    deployment = Deployment.single(build_redis())
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.012, seed=5)
    profile = profile_deployment(deployment, LoadSpec.closed_loop(4),
                                 config, budget=FAST_BUDGET)
    return extract_service_features(profile.artifacts("redis")), config


class TestFineTuneLoop:
    def test_respects_iteration_budget(self, redis_features):
        features, config = redis_features
        result = fine_tune(features, platform_config=config,
                           max_iterations=3, tolerance=0.0)
        assert result.iterations == 3
        assert len(result.error_history) == 3

    def test_converged_stops_early(self, redis_features):
        features, config = redis_features
        result = fine_tune(features, platform_config=config,
                           max_iterations=10, tolerance=0.9)
        assert result.converged
        assert result.iterations == 1

    def test_returns_best_knobs_when_not_converged(self, redis_features):
        features, config = redis_features
        result = fine_tune(features, platform_config=config,
                           max_iterations=3, tolerance=0.0)
        assert isinstance(result.knobs, TuningKnobs)
        # Knobs stay within the clamp range.
        for name in ("imem_scale", "dmem_scale", "big_wset_scale",
                     "transition_scale", "ilp_scale"):
            assert 0.1 <= getattr(result.knobs, name) <= 10.0

    def test_requires_target_counters(self, redis_features):
        features, config = redis_features
        from dataclasses import replace
        stripped = replace(features, target_counters=None)
        with pytest.raises(ConfigurationError):
            fine_tune(stripped, platform_config=config)

    def test_invalid_iterations_rejected(self, redis_features):
        features, config = redis_features
        with pytest.raises(ConfigurationError):
            fine_tune(features, platform_config=config, max_iterations=0)

    def test_mean_error_property(self):
        result = FineTuneResult(knobs=TuningKnobs(), iterations=1,
                                final_errors={"ipc": 0.1, "l1d": 0.3})
        assert result.mean_error == pytest.approx(0.2)
        empty = FineTuneResult(knobs=TuningKnobs(), iterations=0,
                               final_errors={})
        assert empty.mean_error == math.inf
