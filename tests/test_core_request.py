"""CloneRequest: validation, digests, resolved defaults."""

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
from repro.core import DEFAULT_MAX_TUNE_ITERATIONS, GeneratorConfig
from repro.faults import DiskSlowdownFault
from repro.profiling import ProfilingBudget
from repro.runtime import ResilienceConfig
from repro.util import ConfigurationError
from repro.validation import FidelityGate, RemediationPolicy

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
        # faults have one home, the config: the request has no field
        plan = FaultPlan((DiskSlowdownFault(factor=4.0),))
        config = replace(CONFIG, fault_plan=plan)
        with pytest.raises(TypeError):
            _request(config=config, fault_plan=plan)

    def test_resilience_conflict_rejected(self):
        resilience = ResilienceConfig()
        config = replace(CONFIG, resilience=resilience)
        with pytest.raises(TypeError):
            _request(config=config, resilience=resilience)


class TestDerivedViews:
    def test_resolved_config_passthrough(self):
        assert _request().resolved().config is CONFIG

    def test_effective_validation_load_defaults_to_load(self):
        assert _request().resolved().validation_load is LOAD
        other = LoadSpec.open_loop(9_000)
        assert (_request(validation_load=other).resolved().validation_load
                is other)

    def test_resolved_defaults(self):
        resolved = _request().resolved()
        assert resolved.seed == 17
        assert resolved.fine_tune_tiers is True
        assert resolved.max_tune_iterations == DEFAULT_MAX_TUNE_ITERATIONS
        assert resolved.budget == ProfilingBudget()
        assert resolved.generator_config == GeneratorConfig()
        assert resolved.validate is None
        assert resolved.remediation is None

    def test_gated_request_gets_default_remediation(self):
        resolved = _request(validate=True).resolved()
        assert isinstance(resolved.validate, FidelityGate)
        assert resolved.validate.tolerances == FidelityGate().tolerances
        assert resolved.remediation == RemediationPolicy()
        strict = RemediationPolicy(max_attempts=0)
        assert _request(validate=True,
                        remediation=strict).resolved().remediation is strict

    def test_describe_mentions_the_deployment(self):
        text = _request(seed=7).describe()
        assert "memcached" in text
        assert "seed 7" in text


class TestDigest:
    #: digests of a default and an all-options request, pinned when
    #: the options could still be set on the cloner as well
    DEFAULT_DIGEST = (
        "61a56509289fac61b43fc5edbc979cc84d538be7d8c7f10f3b34deae9eceae9a")
    ALL_OPTIONS_DIGEST = (
        "ab79791b8485bd8f5e29425663ef58fff59afef75db7392f09614e585270f949")

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
        assert base.digest() != _request(config=replace(
            CONFIG,
            fault_plan=FaultPlan((DiskSlowdownFault(factor=4.0),)))).digest()

    def test_equal_gates_hash_equally(self):
        a = _request(validate=FidelityGate({"ipc": 0.1}))
        b = _request(validate=FidelityGate({"ipc": 0.1}))
        c = _request(validate=FidelityGate({"ipc": 0.2}))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.digest() != _request(validate=True).digest()

    def test_validate_false_digests_like_none(self):
        # both mean ungated, so they are one experiment
        request = _request(validate=False)
        assert request.validate is None
        assert request.digest() == _request().digest()
        assert request.digest() != _request(validate=True).digest()

    def test_default_request_digest_pinned(self):
        assert _request().digest() == self.DEFAULT_DIGEST

    def test_all_options_request_digest_pinned(self):
        request = _request(
            validation_load=LoadSpec.open_loop(9_000), seed=7,
            fine_tune_tiers=False, max_tune_iterations=2,
            budget=ProfilingBudget(sampled_requests=4),
            generator_config=GeneratorConfig(),
            validate=FidelityGate({"ipc": 0.1}),
            remediation=RemediationPolicy(max_attempts=1))
        assert request.digest() == self.ALL_OPTIONS_DIGEST


class TestClonerIntegration:
    def test_resolved_applies_options(self):
        budget = ProfilingBudget(sampled_requests=4)
        request = _request(seed=7, fine_tune_tiers=False,
                           max_tune_iterations=2, budget=budget).resolved()
        assert request.seed == 7
        assert request.fine_tune_tiers is False
        assert request.max_tune_iterations == 2
        assert request.budget is budget
        assert request.generator_config == GeneratorConfig()

    def test_cloner_takes_no_clone_options(self):
        for option, value in (
                ("seed", 3), ("budget", ProfilingBudget()),
                ("fine_tune_tiers", False), ("max_tune_iterations", 5),
                ("generator_config", GeneratorConfig()),
                ("validate", True), ("remediation", RemediationPolicy())):
            with pytest.raises(TypeError):
                DittoCloner(**{option: value})
        assert DittoCloner(executor="serial").executor == "serial"

    def test_clone_rejects_request_plus_positionals(self):
        with pytest.raises(TypeError):
            DittoCloner().clone(_request(), LOAD)
