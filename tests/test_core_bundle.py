"""Tests for shareable clone bundles (serialise -> share -> regenerate)."""

import json

import pytest

from repro.app.service import Deployment
from repro.app.workloads import build_memcached
from repro.core import (
    CloneRequest,
    DittoCloner,
    GeneratorConfig,
    TuningKnobs,
    audit_bundle_confidentiality,
    deployment_from_bundle,
    extract_service_features,
    load_bundle,
    save_bundle,
    synthesize_service,
)
from repro.core.bundle import bundle_tiers, decode_features, encode_features
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig, run_experiment
from repro.util.errors import ConfigurationError
from repro.util.spec_hash import stable_digest


@pytest.fixture(scope="module")
def memcached_setup():
    deployment = Deployment.single(build_memcached())
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)
    profile = profile_deployment(deployment, LoadSpec.open_loop(100000),
                                 config)
    features = extract_service_features(profile.artifacts("memcached"))
    return deployment, features


@pytest.fixture(scope="module")
def tuned_clone():
    return DittoCloner(executor="serial").clone(CloneRequest(
        deployment=Deployment.single(build_memcached()),
        load=LoadSpec.open_loop(100_000),
        config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5),
        fine_tune_tiers=True, max_tune_iterations=3,
        budget=ProfilingBudget(sampled_requests=8,
                               profile_duration_s=0.015)))


def _save_clone(clone, path):
    report = clone.report
    save_bundle(report.features, path, entry_service="memcached",
                tuned_knobs={name: tuning.knobs
                             for name, tuning in report.tuning.items()},
                generator_seeds=report.generator_seeds)


@pytest.fixture(scope="module")
def bundle_path(memcached_setup, tmp_path_factory):
    _deployment, features = memcached_setup
    path = tmp_path_factory.mktemp("bundles") / "memcached.json"
    save_bundle({"memcached": features}, path, entry_service="memcached")
    return path


class TestRoundTrip:
    def test_encode_decode_preserves_scalars(self, memcached_setup):
        _deployment, features = memcached_setup
        restored = decode_features(encode_features(features))
        assert restored.service == features.service
        assert restored.mix.instructions_per_request == pytest.approx(
            features.mix.instructions_per_request)
        assert restored.regular_ratio == pytest.approx(
            features.regular_ratio)
        assert restored.hot_code_bytes == features.hot_code_bytes
        assert restored.handler_mix == features.handler_mix

    def test_encode_decode_preserves_distributions(self, memcached_setup):
        _deployment, features = memcached_setup
        restored = decode_features(encode_features(features))
        assert (restored.mix.mix.normalized()
                == features.mix.mix.normalized())
        assert restored.data_wsets == features.data_wsets
        assert restored.instr_wsets == features.instr_wsets
        assert (restored.branches.rate_distribution.counts
                == features.branches.rate_distribution.counts)
        assert restored.deps.raw == features.deps.raw

    def test_counters_roundtrip_derived_metrics(self, memcached_setup):
        _deployment, features = memcached_setup
        restored = decode_features(encode_features(features))
        for metric in ("ipc", "branch", "l1i", "l1d", "l2", "llc"):
            assert restored.target_counters.metric(metric) == pytest.approx(
                features.target_counters.metric(metric), rel=1e-6), metric

    def test_bundle_is_valid_json(self, bundle_path):
        document = json.loads(bundle_path.read_text())
        assert document["format"] == "ditto-clone-bundle"
        assert "memcached" in document["tiers"]

    def test_load_bundle(self, bundle_path):
        features, entry, placements = load_bundle(bundle_path)
        assert entry == "memcached"
        assert set(features) == {"memcached"}

    def test_wrong_format_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError):
            load_bundle(bad)

    def test_unknown_entry_rejected(self, memcached_setup, tmp_path):
        _deployment, features = memcached_setup
        with pytest.raises(ConfigurationError):
            save_bundle({"memcached": features}, tmp_path / "x.json",
                        entry_service="ghost")


class TestRegenerationFromBundle:
    def test_bundle_regenerates_runnable_deployment(self, bundle_path):
        synthetic = deployment_from_bundle(bundle_path)
        result = run_experiment(
            synthetic, LoadSpec.open_loop(50000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=9))
        assert result.latency.completed > 100
        assert result.service("memcached").ipc > 0.2

    def test_bundle_regenerates_tuned_clone_bit_for_bit(self, tuned_clone,
                                                        tmp_path):
        path = tmp_path / "tuned.json"
        _save_clone(tuned_clone, path)
        assert (stable_digest(deployment_from_bundle(path))
                == stable_digest(tuned_clone.synthetic))

    def test_bundle_without_seeds_uses_default_seed(self, tuned_clone,
                                                    tmp_path):
        # Bundles written before generator seeds were recorded (v1, and
        # v2 without the stanza) regenerate with GeneratorConfig().seed.
        path = tmp_path / "legacy.json"
        _save_clone(tuned_clone, path)
        document = json.loads(path.read_text())
        del document["generator_seeds"]
        document.pop("integrity")
        document["version"] = 1
        path.write_text(json.dumps(document))
        report = tuned_clone.report
        features, generators = bundle_tiers(document)
        assert generators["memcached"] == GeneratorConfig(
            knobs=report.tuning["memcached"].knobs)
        legacy = deployment_from_bundle(path).services["memcached"]
        assert stable_digest(legacy) == stable_digest(synthesize_service(
            features["memcached"], generators["memcached"]))
        assert report.generator_seeds["memcached"] != GeneratorConfig().seed
        assert (stable_digest(legacy)
                != stable_digest(tuned_clone.synthetic.services["memcached"]))


class TestGeneratorSwitches:
    def test_bundle_regenerates_stage_clone_bit_for_bit(self, tmp_path):
        # A clone generated with the Fig. 9 "branch" stage regenerated
        # from its bundle as the full-stage program (14 blocks against
        # the clone's 8) while bundles recorded only knobs and seeds.
        request = CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(100_000),
            config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5),
            fine_tune_tiers=True, max_tune_iterations=3,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            generator_config=GeneratorConfig.stage("branch"))
        result = DittoCloner(executor="serial").clone(request)
        report = result.report
        path = tmp_path / "stage.json"
        save_bundle(report.features, path, entry_service="memcached",
                    tuned_knobs={name: tuning.knobs
                                 for name, tuning in report.tuning.items()},
                    generator_seeds=report.generator_seeds,
                    generator_config=request.generator_config)
        assert (stable_digest(deployment_from_bundle(path))
                == stable_digest(result.synthetic))
        document = json.loads(path.read_text())
        assert document["generator"] == {
            "instruction_memory": False, "data_memory": False,
            "data_dependencies": False}

    def test_bundle_regenerates_untuned_clone_with_request_knobs(
            self, tmp_path):
        # An untuned clone made with non-default knobs regenerated from
        # its bundle with TuningKnobs() while bundles recorded only the
        # tuner's knobs, and the tuner had recorded none.
        request = CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(100_000),
            config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5),
            fine_tune_tiers=False,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            generator_config=GeneratorConfig(
                knobs=TuningKnobs(instr_scale=2.0)))
        result = DittoCloner(executor="serial").clone(request)
        report = result.report
        assert report.tuning == {}
        path = tmp_path / "untuned.json"
        save_bundle(report.features, path, entry_service="memcached",
                    generator_seeds=report.generator_seeds,
                    generator_config=request.generator_config)
        assert (stable_digest(deployment_from_bundle(path))
                == stable_digest(result.synthetic))

    def test_default_switches_keep_bundle_bytes(self, tuned_clone,
                                                tmp_path):
        report = tuned_clone.report
        plain, explicit = tmp_path / "plain.json", tmp_path / "explicit.json"
        _save_clone(tuned_clone, plain)
        save_bundle(report.features, explicit, entry_service="memcached",
                    tuned_knobs={name: tuning.knobs
                                 for name, tuning in report.tuning.items()},
                    generator_seeds=report.generator_seeds,
                    generator_config=GeneratorConfig(seed=3))
        assert plain.read_bytes() == explicit.read_bytes()
        assert "generator" not in json.loads(plain.read_text())


class TestConfidentiality:
    def test_no_original_identifiers_leak(self, memcached_setup,
                                          bundle_path):
        deployment, _features = memcached_setup
        leaks = audit_bundle_confidentiality(bundle_path, deployment)
        assert leaks == []

    def test_audit_detects_planted_leak(self, memcached_setup, tmp_path):
        deployment, features = memcached_setup
        path = tmp_path / "leaky.json"
        save_bundle({"memcached": features}, path,
                    entry_service="memcached")
        text = path.read_text()
        block_name = next(iter(
            deployment.services["memcached"].program.all_blocks())).name
        path.write_text(text[:-2] + f', "debug": "{block_name}"}}')
        leaks = audit_bundle_confidentiality(path, deployment)
        assert leaks
