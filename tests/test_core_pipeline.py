"""Parallel clone pipeline: determinism, the CloneResult API, validation."""

import pytest

from repro.app.service import Deployment
from repro.app.workloads import build_memcached, social_network_deployment
from repro.core import (
    DEFAULT_MAX_TUNE_ITERATIONS,
    CloneResult,
    DittoCloner,
    derive_tier_seed,
)
from repro.core.cloner import CloneReport
from repro.core.finetune import fine_tune
from repro.core.pipeline import resolve_executor, run_tier_pipeline
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig
from repro.util import ConfigurationError, stable_digest

FAST_BUDGET = ProfilingBudget(
    sampled_requests=8, max_accesses_per_spec=512,
    max_istream_per_block=2048, branch_outcomes_per_site=128,
    max_sites_per_population=8, dep_samples_per_block=48,
    profile_duration_s=0.015,
)
SOCIALNET_LOAD = LoadSpec.open_loop(800)
SOCIALNET_CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5)


@pytest.fixture(scope="module")
def socialnet_profile():
    """One shared profiling session; executor runs re-clone from it."""
    deployment = social_network_deployment()
    profile = profile_deployment(deployment, SOCIALNET_LOAD,
                                 SOCIALNET_CONFIG, budget=FAST_BUDGET,
                                 seed=17)
    return deployment, profile


def _clone_with(executor, socialnet_profile):
    deployment, profile = socialnet_profile
    cloner = DittoCloner(fine_tune_tiers=True, max_tune_iterations=2,
                         budget=FAST_BUDGET, seed=17,
                         executor=executor, max_workers=4)
    return cloner.clone_from_profile(profile, deployment=deployment,
                                     profiling_config=SOCIALNET_CONFIG)


@pytest.fixture(scope="module")
def executor_clones(socialnet_profile):
    return {mode: _clone_with(mode, socialnet_profile)
            for mode in ("serial", "process")}


class TestExecutorDeterminism:
    """Acceptance: parallel == serial bit-for-bit on the social network."""

    def test_identical_features(self, executor_clones):
        digests = {
            mode: stable_digest(result.report.features)
            for mode, result in executor_clones.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_identical_tuned_knobs(self, executor_clones):
        digests = {
            mode: stable_digest({name: tuning.knobs for name, tuning
                                 in sorted(result.report.tuning.items())})
            for mode, result in executor_clones.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_identical_programs(self, executor_clones):
        digests = {
            mode: stable_digest({name: spec.program for name, spec
                                 in sorted(result.synthetic.services.items())})
            for mode, result in executor_clones.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_identical_whole_deployment(self, executor_clones):
        digests = {mode: stable_digest(result.synthetic)
                   for mode, result in executor_clones.items()}
        assert len(set(digests.values())) == 1, digests

    def test_every_tier_cloned(self, executor_clones, socialnet_profile):
        deployment, _profile = socialnet_profile
        for result in executor_clones.values():
            assert set(result.synthetic.services) == set(deployment.services)


class TestCloneReportTelemetry:
    def test_executor_mode_reported(self, executor_clones):
        for mode, result in executor_clones.items():
            assert result.report.executor == mode

    def test_per_tier_wall_clock(self, executor_clones, socialnet_profile):
        deployment, _profile = socialnet_profile
        for result in executor_clones.values():
            seconds = result.report.tier_seconds
            assert set(seconds) == set(deployment.services)
            assert all(s > 0 for s in seconds.values())

    def test_cache_counters_surface(self, executor_clones):
        for result in executor_clones.values():
            stats = result.report.cache_stats
            # Two tuning iterations per tier, every knob vector fresh:
            # all misses, and the counters made it back from the workers.
            assert stats.misses >= len(result.report.tuning)
            assert stats.lookups == stats.hits + stats.misses


class TestCloneResultApi:
    def test_clone_takes_only_a_request(self):
        deployment = Deployment.single(build_memcached())
        with pytest.raises(ConfigurationError, match="CloneRequest"):
            DittoCloner().clone(deployment)

    def test_result_does_not_unpack(self, executor_clones):
        result = executor_clones["serial"]
        assert isinstance(result, CloneResult)
        assert isinstance(result.report, CloneReport)
        with pytest.raises(TypeError):
            synthetic, report = result


class TestConstructionValidation:
    def test_positional_arguments_rejected(self):
        with pytest.raises(TypeError):
            DittoCloner(None)

    def test_max_tune_iterations_validated(self):
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ConfigurationError):
                DittoCloner(max_tune_iterations=bad)

    def test_seed_validated(self):
        for bad in ("17", 1.5, None, False):
            with pytest.raises(ConfigurationError):
                DittoCloner(seed=bad)

    def test_executor_validated(self):
        with pytest.raises(ConfigurationError):
            DittoCloner(executor="fork-bomb")
        with pytest.raises(ConfigurationError):
            DittoCloner(max_workers=0)

    def test_defaults_unified_with_fine_tune(self):
        # The paper's "within ten iterations" guidance, one constant.
        assert DEFAULT_MAX_TUNE_ITERATIONS == 10
        assert (DittoCloner().max_tune_iterations
                == DEFAULT_MAX_TUNE_ITERATIONS)
        assert (fine_tune.__defaults__[2]  # max_iterations
                == DEFAULT_MAX_TUNE_ITERATIONS)


class TestExecutorResolution:
    def test_explicit_modes_honoured(self):
        for mode in ("process", "serial"):
            assert resolve_executor(mode, n_tasks=8) == mode

    def test_thread_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("thread", n_tasks=2)
        with pytest.raises(ConfigurationError):
            DittoCloner(executor="thread")
        with pytest.raises(ConfigurationError):
            run_tier_pipeline([], executor="thread")

    def test_auto_serial_for_single_task(self):
        assert resolve_executor("auto", n_tasks=1) == "serial"

    def test_auto_serial_for_single_worker(self):
        assert resolve_executor("auto", n_tasks=8, max_workers=1) == "serial"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("gpu", n_tasks=2)

    def test_tier_seed_derivation_stable_and_distinct(self):
        a = derive_tier_seed(17, "frontend", "bodygen")
        assert a == derive_tier_seed(17, "frontend", "bodygen")
        assert a != derive_tier_seed(17, "frontend", "finetune")
        assert a != derive_tier_seed(17, "post-storage", "bodygen")
        assert a != derive_tier_seed(18, "frontend", "bodygen")
