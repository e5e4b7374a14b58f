"""Tests for the asynchronous client model (§4.3.1)."""

import pytest

from repro.app.skeleton import ClientNetworkModel
from repro.app.workloads.asyncgw import async_gateway_deployment
from repro.core import CloneRequest, DittoCloner
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment, \
    profile_network_model
from repro.runtime import ExperimentConfig, run_experiment

FAST_BUDGET = ProfilingBudget(sampled_requests=6, max_accesses_per_spec=384,
                              max_istream_per_block=1024,
                              branch_outcomes_per_site=96,
                              max_sites_per_population=6,
                              dep_samples_per_block=32,
                              profile_duration_s=0.02)


def _run(asynchronous, qps, duration=0.04, workers=2):
    deployment = async_gateway_deployment(asynchronous=asynchronous,
                                          workers=workers)
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=duration,
                              seed=6)
    return run_experiment(deployment, LoadSpec.open_loop(qps), config)


class TestAsyncRuntimeSemantics:
    def test_async_gateway_outperforms_sync_twin_at_load(self):
        # Two workers; backend round trips dominate. The sync gateway's
        # capacity is ~2/downstream-latency; the async one keeps taking
        # requests during the waits.
        qps = 16_000
        sync_result = _run(asynchronous=False, qps=qps)
        async_result = _run(asynchronous=True, qps=qps)
        assert (async_result.latency_ms(99)
                < 0.65 * sync_result.latency_ms(99))

    def test_same_work_performed_either_way(self):
        sync_result = _run(asynchronous=False, qps=3_000)
        async_result = _run(asynchronous=True, qps=3_000)
        sync_m = sync_result.service("gateway")
        async_m = async_result.service("gateway")
        assert async_m.requests == pytest.approx(sync_m.requests, rel=0.1)
        # The async client adds reactor-registration kernel work, so its
        # per-request instruction count is slightly higher, never lower.
        assert (async_m.instructions_per_request
                >= sync_m.instructions_per_request * 0.98)

    def test_backends_loaded_equally(self):
        result = _run(asynchronous=True, qps=5_000)
        a = result.service("backend-a").requests
        b = result.service("backend-b").requests
        assert a == b


class TestAsyncDetectionAndCloning:
    @pytest.fixture(scope="class")
    def clones(self):
        out = {}
        for asynchronous in (False, True):
            deployment = async_gateway_deployment(asynchronous=asynchronous)
            config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                      seed=6)
            profile = profile_deployment(
                deployment, LoadSpec.open_loop(3000), config,
                budget=FAST_BUDGET)
            out[asynchronous] = (deployment, profile)
        return out

    def test_profiler_detects_client_model(self, clones):
        for asynchronous, (_deployment, profile) in clones.items():
            network = profile_network_model(profile.artifacts("gateway"))
            expected = (ClientNetworkModel.ASYNCHRONOUS if asynchronous
                        else ClientNetworkModel.SYNCHRONOUS)
            assert network.client_model is expected, asynchronous

    def test_clone_preserves_async_behaviour(self, clones):
        deployment, _profile = clones[True]
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=6)
        synthetic = DittoCloner().clone(CloneRequest(
            deployment=deployment, load=LoadSpec.open_loop(3000),
            config=config, fine_tune_tiers=False,
            budget=FAST_BUDGET)).synthetic
        skeleton = synthetic.services["gateway"].skeleton
        assert skeleton.client_model is ClientNetworkModel.ASYNCHRONOUS
        # And the synthetic keeps the async capacity advantage.
        vcfg = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03,
                                seed=9)
        result = run_experiment(synthetic, LoadSpec.open_loop(12_000), vcfg)
        assert result.latency_ms(99) < 5.0
