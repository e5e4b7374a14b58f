"""Fidelity gates, remediation, and the bundle-validation CLI."""

import dataclasses
import json

import pytest

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
    run_experiment,
)
from repro.core.body_gen import GeneratorConfig, TuningKnobs
from repro.core.bundle import save_bundle
from repro.core.pipeline import derive_tier_seed
from repro.hw.core import BlockTiming
from repro.runtime.metrics import ServiceMetrics
from repro.util.errors import ConfigurationError, FidelityGateError
from repro.validation import FidelityGate, RemediationPolicy
from repro.validation.__main__ import main as validation_main
from repro.validation.gate import MetricTolerance

CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02)
LOAD = LoadSpec.open_loop(20_000)


@pytest.fixture(scope="module")
def original():
    return Deployment.single(build_memcached())


@pytest.fixture(scope="module")
def gated_clone(original):
    return DittoCloner(executor="serial").clone(CloneRequest(
        deployment=original, load=LOAD, config=CONFIG, validate=True,
        max_tune_iterations=3))


def _counters(ipc=1.0, branch=0.02, l1i=0.1, l1d=0.1, l2=0.2, llc=0.3):
    cycles = 1e9
    instructions = ipc * cycles
    branches = instructions * 0.1
    l1i_accesses = instructions / 4.0
    l1d_accesses = instructions * 0.3
    l2_accesses = l1d_accesses * l1d
    llc_accesses = l2_accesses * l2
    metrics = ServiceMetrics()
    metrics.absorb(BlockTiming(
        cycles=cycles, instructions=instructions,
        uops=instructions * 1.1, branches=branches,
        branch_mispredictions=branches * branch,
        l1i_accesses=l1i_accesses, l1i_misses=l1i_accesses * l1i,
        l1d_accesses=l1d_accesses, l1d_misses=l1d_accesses * l1d,
        l2_accesses=l2_accesses, l2_misses=l2_accesses * l2,
        llc_accesses=llc_accesses, llc_misses=llc_accesses * llc,
    ))
    return metrics


class TestFidelityGate:
    def test_identical_runs_pass_with_zero_error(self, original):
        result = run_experiment(original, LOAD, CONFIG)
        report = FidelityGate().compare_runs(result, result)
        assert report.passed
        assert report.mean_error == 0.0
        assert all(check.error == 0.0 for check in report.checks)

    def test_gated_cloner_attaches_passing_report(self, gated_clone):
        fidelity = gated_clone.report.fidelity
        assert fidelity is not None
        assert fidelity.passed
        assert fidelity.mode == "runs"
        assert gated_clone.report.remediation == []
        checked = {check.metric for check in fidelity.checks}
        assert {"ipc", "l1i", "l1d", "llc", "branch_mpki"} <= checked
        assert "error_rate" in checked

    def test_mistuned_clone_fails_per_metric(self, original):
        # A clone generated with deliberately wrong knobs (8x data
        # working sets, 5x branch transition rate) must fail the gate,
        # with the failures attributed to the distorted metrics.
        bad_knobs = TuningKnobs(dmem_scale=8.0, big_wset_scale=8.0,
                                transition_scale=5.0)
        mistuned = DittoCloner(executor="serial").clone(CloneRequest(
            deployment=original, load=LOAD, config=CONFIG,
            fine_tune_tiers=False,
            generator_config=GeneratorConfig(knobs=bad_knobs)))
        baseline = run_experiment(original, LOAD, CONFIG)
        distorted = run_experiment(mistuned.synthetic, LOAD, CONFIG)
        report = FidelityGate().compare_runs(baseline, distorted)
        assert not report.passed
        failing = {check.metric for check in report.failures()}
        assert failing & {"l1d", "l2", "llc", "branch_mpki", "ipc"}

    def test_report_round_trips_to_dict(self, gated_clone):
        document = gated_clone.report.fidelity.to_dict()
        assert document["format"] == "ditto-fidelity-report/1"
        assert document["passed"] is True
        assert len(document["checks"]) == \
            len(gated_clone.report.fidelity.checks)
        text = gated_clone.report.fidelity.summary()
        assert "PASS" in text and "ipc" in text

    def test_tolerance_overrides(self):
        gate = FidelityGate({"ipc": 0.5,
                             "llc": MetricTolerance("llc", relative=0.9)})
        assert gate.tolerances["ipc"].relative == 0.5
        assert gate.tolerances["llc"].relative == 0.9
        with pytest.raises(ConfigurationError):
            FidelityGate({"ipc": "loose"})
        with pytest.raises(ConfigurationError):
            FidelityGate(metrics=("ipc", "no_such_metric"))
        with pytest.raises(ConfigurationError):
            FidelityGate(latency_quantiles=(1.5,))
        with pytest.raises(ConfigurationError):
            MetricTolerance("ipc", relative=-0.1)

    def test_absolute_slack_floors_near_zero_metrics(self):
        gate = FidelityGate()
        target = _counters(l2=1e-4)
        measured = _counters(l2=3e-4)  # 200% relative, tiny absolute
        report = gate.compare_counters("tier", target, measured)
        l2 = next(c for c in report.checks if c.metric == "l2")
        assert l2.passed  # absolute floor absorbs the relative blow-up

    def test_counters_mode_flags_real_drift(self):
        gate = FidelityGate()
        report = gate.compare_counters(
            "tier", _counters(ipc=1.0, l1d=0.10),
            _counters(ipc=0.5, l1d=0.25))
        failing = {check.metric for check in report.failures()}
        assert "ipc" in failing and "l1d" in failing
        assert report.mode == "counters"


class TestRemediation:
    def test_policy_ladder_is_deterministic_and_escalating(self):
        policy = RemediationPolicy(max_attempts=2, widen_tune_factor=2.0)
        one = policy.plan(1, reason="gate_failure", base_seed=17,
                          base_tune_iterations=10)
        two = policy.plan(2, reason="gate_failure", base_seed=17,
                          base_tune_iterations=10)
        again = policy.plan(1, reason="gate_failure", base_seed=17,
                            base_tune_iterations=10)
        assert one == again  # same failure climbs the same ladder
        assert one.seed != 17 and two.seed != one.seed
        assert one.max_tune_iterations == 20
        assert two.max_tune_iterations == 40
        assert policy.plan(3, reason="gate_failure", base_seed=17,
                           base_tune_iterations=10) is None

    def test_rungs_carry_no_executor(self):
        # A rung runs on the clone's own executor: plan() takes none and
        # a step names none.
        policy = RemediationPolicy()
        with pytest.raises(TypeError):
            policy.plan(1, reason="gate_failure", base_seed=17,
                        base_tune_iterations=10, base_executor="process")
        step = policy.plan(1, reason="gate_failure", base_seed=17,
                           base_tune_iterations=10)
        assert [f.name for f in dataclasses.fields(step)] == [
            "attempt", "reason", "seed", "max_tune_iterations"]
        assert [f.name for f in dataclasses.fields(policy)] == [
            "max_attempts", "widen_tune_factor", "reseed"]

    def test_policy_axes_can_be_disabled(self):
        policy = RemediationPolicy(reseed=False, widen_tune_factor=1.0)
        step = policy.plan(1, reason="sim_budget", base_seed=17,
                           base_tune_iterations=10)
        assert step.seed == 17
        assert step.max_tune_iterations == 11  # still nudged upward

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RemediationPolicy(max_attempts=-1)
        with pytest.raises(ConfigurationError):
            RemediationPolicy(widen_tune_factor=0.5)
        original = Deployment.single(build_memcached())
        with pytest.raises(ConfigurationError):
            CloneRequest(deployment=original, load=LOAD, config=CONFIG,
                         validate=True, remediation="retry-harder")
        with pytest.raises(ConfigurationError):
            CloneRequest(deployment=original, load=LOAD, config=CONFIG,
                         validate="strict")

    def test_unsatisfiable_gate_exhausts_ladder(self, original):
        # Zero-tolerance everywhere: no clone can pass, so the cloner
        # must climb every remediation rung, then surface the failing
        # report AND the clone itself.
        impossible = FidelityGate({
            name: MetricTolerance(name, relative=1e-12)
            for name in ("ipc", "l1i", "l1d", "l2", "llc", "branch_mpki",
                         "branch", "p50_latency", "p99_latency",
                         "error_rate")
        })
        with pytest.raises(FidelityGateError) as excinfo:
            DittoCloner(executor="serial").clone(CloneRequest(
                deployment=original, load=LOAD, config=CONFIG,
                validate=impossible, fine_tune_tiers=False,
                remediation=RemediationPolicy(max_attempts=1)))
        error = excinfo.value
        assert error.attempts == 2  # original + one remediation rung
        assert error.report is not None and not error.report.passed
        assert error.result is not None  # the clone is salvageable
        steps = error.result.report.remediation
        assert len(steps) == 1
        assert steps[0].reason == "gate_failure"
        assert error.result.report.executor == "serial"
        # the surfaced clone was generated with the rung's seed, and the
        # report records it for bundles
        assert error.result.report.generator_seeds == {
            "memcached": derive_tier_seed(steps[0].seed, "memcached",
                                          "bodygen")}


class TestValidationCLI:
    @pytest.fixture(scope="class")
    def bundle(self, gated_clone, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundles") / "clone.json"
        save_bundle(
            gated_clone.report.features, path, entry_service="memcached",
            tuned_knobs={name: result.knobs for name, result
                         in gated_clone.report.tuning.items()},
            generator_seeds=gated_clone.report.generator_seeds)
        return path

    def test_tuned_bundle_passes(self, bundle, tmp_path):
        report_path = tmp_path / "report.json"
        code = validation_main([str(bundle), "--duration", "0.2",
                                "--json", str(report_path), "--quiet"])
        assert code == 0
        document = json.loads(report_path.read_text())
        assert document["passed"] is True
        assert document["platform"] == "A"
        assert len(document["tiers"]) == 1
        assert document["tiers"][0]["mode"] == "counters"

    def test_mistuned_bundle_fails(self, gated_clone, tmp_path):
        path = tmp_path / "mistuned.json"
        save_bundle(
            gated_clone.report.features, path, entry_service="memcached",
            tuned_knobs={"memcached": TuningKnobs(dmem_scale=8.0,
                                                  big_wset_scale=8.0,
                                                  transition_scale=5.0)})
        report_path = tmp_path / "report.json"
        code = validation_main([str(path), "--duration", "0.2",
                                "--json", str(report_path), "--quiet"])
        assert code == 1
        document = json.loads(report_path.read_text())
        assert document["passed"] is False

    def test_tampered_bundle_quarantined(self, bundle, tmp_path):
        target = tmp_path / "tampered.json"
        document = json.loads(bundle.read_text())
        document["entry_service"] = "postgres"  # silent edit
        target.write_text(json.dumps(document))
        code = validation_main([str(target), "--quiet"])
        assert code == 2
        assert not target.exists()
        assert (tmp_path / "tampered.json.quarantined").exists()

    def test_truncated_bundle_quarantined(self, bundle, tmp_path):
        target = tmp_path / "truncated.json"
        target.write_text(bundle.read_text()[:100])
        code = validation_main([str(target), "--quiet"])
        assert code == 2
        assert (tmp_path / "truncated.json.quarantined").exists()

    @pytest.mark.parametrize("entry", ["ipc", "ipc=tight", "=0.1"])
    def test_malformed_tolerance_cannot_run(self, bundle, entry, capsys):
        # 2 is "could not run": a typo must not read as a gate failure (1)
        code = validation_main([str(bundle), "--tolerance", entry,
                                "--quiet"])
        assert code == 2
        assert "--tolerance takes METRIC=REL" in capsys.readouterr().err

    def test_tolerance_override_flag(self, bundle):
        # An absurdly strict CLI override must flip the verdict.
        code = validation_main([str(bundle), "--duration", "0.2",
                                "--tolerance", "ipc=1e-12", "--quiet"])
        assert code == 1
