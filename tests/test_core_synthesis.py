"""Tests for the one features → service path (``repro.core.synthesis``)."""

from dataclasses import replace

import pytest

from repro import CloneRequest, DittoCloner, ExperimentConfig, LoadSpec
from repro.app.program import Handler, Program, RpcOp
from repro.app.workloads import two_tier_deployment
from repro.core import GeneratorConfig, synthesize_service, tier_load
from repro.hw import PLATFORM_A
from repro.profiling import ProfilingBudget
from repro.util.spec_hash import stable_digest


@pytest.fixture(scope="module")
def clone():
    return DittoCloner(executor="serial").clone(CloneRequest(
        deployment=two_tier_deployment(), load=LoadSpec.open_loop(20_000),
        config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                seed=5),
        fine_tune_tiers=False, seed=11,
        budget=ProfilingBudget(sampled_requests=8,
                               profile_duration_s=0.015)))


def _generator(clone, tier):
    return GeneratorConfig(seed=clone.report.generator_seeds[tier])


class TestSynthesizeService:
    def test_regenerates_the_pipeline_spec(self, clone):
        assert set(clone.report.generator_seeds) == {"frontend",
                                                     "memcached"}
        for name, spec in clone.synthetic.services.items():
            regenerated = synthesize_service(clone.report.features[name],
                                             _generator(clone, name))
            assert stable_digest(regenerated) == stable_digest(spec)

    def test_standalone_strips_rpcs_keeps_other_ops(self, clone):
        features = clone.report.features["frontend"]
        full = synthesize_service(
            features, _generator(clone, "frontend")).program
        alone = synthesize_service(features, _generator(clone, "frontend"),
                                   standalone=True).program
        assert any(handler.rpcs for handler in full.handlers.values())
        for name, handler in full.handlers.items():
            assert alone.handler(name).ops == tuple(
                op for op in handler.ops if not isinstance(op, RpcOp))

    def test_standalone_keeps_rpc_only_handler(self, clone, monkeypatch):
        features = clone.report.features["memcached"]
        rpc_only = Program(handlers={
            name: Handler(name, (RpcOp("downstream", 1, 1),))
            for name in features.handler_mix})
        monkeypatch.setattr("repro.core.synthesis.generate_program",
                            lambda features, config: (rpc_only, {}))
        spec = synthesize_service(features, standalone=True)
        assert spec.program.handlers == rpc_only.handlers


class TestTierLoad:
    def test_open_loop_at_observed_rate(self, clone):
        features = clone.report.features["memcached"]
        assert not features.observed_closed_loop
        assert tier_load(features) == LoadSpec.open_loop(
            max(100.0, features.observed_qps))

    def test_closed_loop_keeps_its_discipline(self, clone):
        features = replace(clone.report.features["memcached"],
                           observed_closed_loop=True,
                           observed_connections=0)
        assert tier_load(features) == LoadSpec.closed_loop(1)
