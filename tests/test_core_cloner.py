"""Integration tests: fine tuning and end-to-end cloning."""

import pytest

from repro.analysis import compare_metrics
from repro.app.service import Deployment
from repro.app.workloads import build_memcached, build_nginx, build_redis
from repro.core import CloneRequest, DittoCloner, GeneratorConfig, fine_tune
from repro.core.features import extract_service_features
from repro.hw import PLATFORM_A, PLATFORM_B
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig, run_experiment

FAST_BUDGET = ProfilingBudget(
    sampled_requests=8, max_accesses_per_spec=512,
    max_istream_per_block=2048, branch_outcomes_per_site=128,
    max_sites_per_population=8, dep_samples_per_block=48,
    profile_duration_s=0.015,
)


@pytest.fixture(scope="module")
def memcached_clone():
    deployment = Deployment.single(build_memcached())
    load = LoadSpec.open_loop(100000)
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)
    result = DittoCloner().clone(CloneRequest(
        deployment=deployment, load=load, config=config,
        fine_tune_tiers=True, max_tune_iterations=6, budget=FAST_BUDGET))
    return deployment, result.synthetic, result.report, load


class TestFineTune:
    def test_reduces_or_holds_error(self):
        deployment = Deployment.single(build_redis())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.015,
                                  seed=5)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(4),
                                     config, budget=FAST_BUDGET)
        features = extract_service_features(profile.artifacts("redis"))
        result = fine_tune(features, platform_config=config,
                           max_iterations=4)
        assert result.iterations <= 4
        assert result.error_history
        assert min(result.error_history) <= result.error_history[0] + 0.02

    def test_converged_flag_consistent(self, memcached_clone):
        _dep, _synth, report, _load = memcached_clone
        tuning = report.tuning["memcached"]
        if tuning.converged:
            assert min(tuning.error_history) <= 0.05 + 1e-9


class TestSingleTierClone:
    def test_clone_is_droppable(self, memcached_clone):
        deployment, synthetic, _report, _load = memcached_clone
        assert set(synthetic.services) == set(deployment.services)
        assert synthetic.entry_service == deployment.entry_service

    def test_clone_conceals_original_blocks(self, memcached_clone):
        deployment, synthetic, _report, _load = memcached_clone
        original_blocks = {
            b.name for b in
            deployment.services["memcached"].program.all_blocks()}
        synthetic_blocks = {
            b.name for b in
            synthetic.services["memcached"].program.all_blocks()}
        assert not original_blocks & synthetic_blocks

    def test_counters_match_within_paper_band(self, memcached_clone):
        deployment, synthetic, _report, load = memcached_clone
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=9)
        actual = run_experiment(deployment, load, vcfg)
        synth = run_experiment(synthetic, load, vcfg)
        report = compare_metrics(actual.service("memcached"),
                                 synth.service("memcached"))
        # Paper-reported mean errors are 4-12% per metric; allow headroom
        # for the much shorter profiling budget used in tests.
        assert report.error_of("ipc") < 0.25
        assert report.mean_error(["ipc", "branch", "l1d", "l1i"]) < 0.30

    def test_network_bandwidth_matches(self, memcached_clone):
        deployment, synthetic, _report, load = memcached_clone
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=9)
        actual = run_experiment(deployment, load, vcfg)
        synth = run_experiment(synthetic, load, vcfg)
        a = actual.net_bandwidth("memcached")
        s = synth.net_bandwidth("memcached")
        assert s == pytest.approx(a, rel=0.15)

    def test_latency_same_order(self, memcached_clone):
        deployment, synthetic, _report, load = memcached_clone
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=9)
        actual = run_experiment(deployment, load, vcfg)
        synth = run_experiment(synthetic, load, vcfg)
        assert synth.latency_ms(99) == pytest.approx(actual.latency_ms(99),
                                                     rel=0.6)

    def test_portability_reacts_to_platform_change(self, memcached_clone):
        # Profiled on A only; both actual and synthetic move the same
        # direction when run on B (Fig. 7's claim).
        deployment, synthetic, _report, load = memcached_clone
        cfg_b = ExperimentConfig(platform=PLATFORM_B, duration_s=0.03,
                                 seed=9)
        cfg_a = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03,
                                 seed=9)
        actual_a = run_experiment(deployment, load, cfg_a)
        actual_b = run_experiment(deployment, load, cfg_b)
        synth_a = run_experiment(synthetic, load, cfg_a)
        synth_b = run_experiment(synthetic, load, cfg_b)
        actual_delta = (actual_b.service("memcached").l2_miss_rate
                        - actual_a.service("memcached").l2_miss_rate)
        synth_delta = (synth_b.service("memcached").l2_miss_rate
                       - synth_a.service("memcached").l2_miss_rate)
        # Both react with the same sign (B's smaller L2 hurts both).
        assert actual_delta * synth_delta >= 0

    def test_load_reaction_without_reprofiling(self, memcached_clone):
        deployment, synthetic, _report, _load = memcached_clone
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=9)
        low = LoadSpec.open_loop(10000)
        high = LoadSpec.open_loop(250000)
        actual_low = run_experiment(deployment, low, vcfg)
        actual_high = run_experiment(deployment, high, vcfg)
        synth_low = run_experiment(synthetic, low, vcfg)
        synth_high = run_experiment(synthetic, high, vcfg)
        # Both show the low-load IPC dip (cold wakeups).
        assert (actual_low.service("memcached").ipc
                < actual_high.service("memcached").ipc)
        assert (synth_low.service("memcached").ipc
                < synth_high.service("memcached").ipc)


class TestNginxClone:
    def test_single_worker_skeleton_preserved(self):
        deployment = Deployment.single(build_nginx())
        load = LoadSpec.open_loop(20000)
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=5)
        result = DittoCloner().clone(CloneRequest(
            deployment=deployment, load=load, config=config,
            fine_tune_tiers=False, budget=FAST_BUDGET))
        synthetic = result.synthetic
        skeleton = synthetic.services["nginx"].skeleton
        assert skeleton.worker_threads() == 1
        # Saturation behaviour carries over: one worker caps throughput.
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03,
                                seed=9)
        res = run_experiment(synthetic, LoadSpec.closed_loop(8), vcfg)
        assert res.throughput > 1000
