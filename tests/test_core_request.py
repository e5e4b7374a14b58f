"""CloneRequest: validation, digests, option plumbing."""

import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    FaultPlan,
    LoadSpec,
    PLATFORM_A,
    PLATFORM_B,
    build_memcached,
)
from repro.faults import DiskSlowdownFault
from repro.profiling import ProfilingBudget
from repro.runtime import ResilienceConfig
from repro.util import ConfigurationError
from repro.validation import FidelityGate

LOAD = LoadSpec.open_loop(50_000)
CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)


def _deployment():
    return Deployment.single(build_memcached())


def _request(**overrides):
    fields = dict(deployment=_deployment(), load=LOAD, config=CONFIG)
    fields.update(overrides)
    return CloneRequest(**fields)


class TestConstruction:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            CloneRequest(_deployment(), LOAD, CONFIG)

    def test_frozen(self):
        request = _request()
        with pytest.raises(FrozenInstanceError):
            request.seed = 3

    def test_picklable(self):
        request = _request(seed=7)
        clone = pickle.loads(pickle.dumps(request))
        assert clone.digest() == request.digest()

    def test_required_fields_validated(self):
        with pytest.raises(ConfigurationError):
            _request(deployment="memcached")
        with pytest.raises(ConfigurationError):
            _request(load=50_000)
        with pytest.raises(ConfigurationError):
            _request(config={"platform": "A"})

    def test_option_fields_validated(self):
        with pytest.raises(ConfigurationError):
            _request(seed=True)
        with pytest.raises(ConfigurationError):
            _request(seed="17")
        with pytest.raises(ConfigurationError):
            _request(max_tune_iterations=0)
        with pytest.raises(ConfigurationError):
            _request(max_tune_iterations=True)
        with pytest.raises(ConfigurationError):
            _request(validate="strict")
        with pytest.raises(ConfigurationError):
            _request(remediation="retry-harder")
        with pytest.raises(ConfigurationError):
            _request(validation_load=3.0)

    def test_fault_plan_conflict_rejected(self):
        plan = FaultPlan((DiskSlowdownFault(factor=4.0),))
        config = replace(CONFIG, fault_plan=plan)
        with pytest.raises(ConfigurationError):
            _request(config=config, fault_plan=plan)

    def test_resilience_conflict_rejected(self):
        resilience = ResilienceConfig()
        config = replace(CONFIG, resilience=resilience)
        with pytest.raises(ConfigurationError):
            _request(config=config, resilience=resilience)


class TestDerivedViews:
    def test_effective_config_passthrough(self):
        assert _request().effective_config() is CONFIG

    def test_effective_config_folds_fault_plan(self):
        plan = FaultPlan((DiskSlowdownFault(factor=4.0),))
        effective = _request(fault_plan=plan).effective_config()
        assert effective.fault_plan is plan
        assert effective.platform is CONFIG.platform

    def test_effective_validation_load_defaults_to_load(self):
        assert _request().effective_validation_load() is LOAD
        other = LoadSpec.open_loop(9_000)
        assert (_request(validation_load=other).effective_validation_load()
                is other)

    def test_cloner_options_only_non_none(self):
        assert _request().cloner_options() == {}
        options = _request(seed=7, fine_tune_tiers=False).cloner_options()
        assert options == {"seed": 7, "fine_tune_tiers": False}

    def test_validate_false_is_an_option_not_inherit(self):
        # Tri-state: False forces the gate off, None inherits.
        assert _request(validate=False).cloner_options() == {
            "validate": False}
        assert "validate" not in _request().cloner_options()

    def test_describe_mentions_the_deployment(self):
        text = _request(seed=7).describe()
        assert "memcached" in text
        assert "seed 7" in text


class TestDigest:
    def test_stable_across_equal_requests(self):
        assert _request(seed=7).digest() == _request(seed=7).digest()

    def test_sensitive_to_output_affecting_fields(self):
        base = _request()
        assert base.digest() != _request(seed=7).digest()
        assert base.digest() != _request(
            load=LoadSpec.open_loop(60_000)).digest()
        assert base.digest() != _request(
            config=ExperimentConfig(platform=PLATFORM_B,
                                    duration_s=0.02, seed=5)).digest()
        assert base.digest() != _request(fine_tune_tiers=False).digest()
        assert base.digest() != _request(
            budget=ProfilingBudget(sampled_requests=4)).digest()

    def test_equal_gates_hash_equally(self):
        a = _request(validate=FidelityGate({"ipc": 0.1}))
        b = _request(validate=FidelityGate({"ipc": 0.1}))
        c = _request(validate=FidelityGate({"ipc": 0.2}))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.digest() != _request(validate=True).digest()


class TestClonerIntegration:
    def test_for_request_applies_options(self):
        request = _request(seed=7, fine_tune_tiers=False,
                           max_tune_iterations=2)
        cloner = DittoCloner.for_request(request)
        assert cloner.seed == 7
        assert cloner.fine_tune_tiers is False
        assert cloner.max_tune_iterations == 2

    def test_for_request_overrides_win(self):
        cloner = DittoCloner.for_request(_request(seed=7), seed=9,
                                         executor="serial")
        assert cloner.seed == 9
        assert cloner.executor == "serial"

    def test_effective_request_overrides_cloner(self):
        cloner = DittoCloner(seed=3, max_tune_iterations=5)
        effective = cloner._effective(_request(seed=7))
        assert effective.seed == 7
        assert effective.max_tune_iterations == 5  # inherited

    def test_effective_is_identity_without_options(self):
        cloner = DittoCloner(seed=3)
        assert cloner._effective(_request()) is cloner

    def test_clone_rejects_request_plus_positionals(self):
        with pytest.raises(TypeError):
            DittoCloner().clone(_request(), LOAD)
