"""One pool per clone: same verdicts as a serial clone, on every path.

For a gated request on the process executor, :class:`DittoCloner` opens
one worker pool for the whole call: profiling collects each tier's
artifacts in it, the tier stage runs there, and the gate replays the
original in it while the parent replays the clone. These tests hold it
to the serial clone: equal reports and profiles, a serial fallback with
an equal report when a worker dies in any stage, a worker replay that
raises and is not run again, a fresh replay of both sides on every
remediation rung, and no child process left behind on any exit path.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import (
    CloneRequest,
    Deployment,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
)
from repro.core import pipeline as pipeline_module
from repro.core.cloner import CloneObserver, DittoCloner
from repro.profiling import ProfilingBudget
from repro.profiling import collector as collector_module
from repro.telemetry import Telemetry
from repro.util.errors import (
    FidelityGateError,
    JobCancelledError,
    TierExecutionError,
)
from repro.util.spec_hash import stable_digest
from repro.validation import FidelityGate, RemediationPolicy
from repro.validation import gate as gate_module
from repro.validation.gate import MetricTolerance

ORIGINAL = Deployment.single(build_memcached())
REQUEST = CloneRequest(
    deployment=ORIGINAL,
    load=LoadSpec.open_loop(100_000),
    config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5),
    budget=ProfilingBudget(sampled_requests=8, profile_duration_s=0.015),
    max_tune_iterations=2,
    validate=True,
)
#: zero tolerance everywhere: every attempt fails its gate
IMPOSSIBLE = FidelityGate({
    name: MetricTolerance(name, relative=1e-12)
    for name in ("ipc", "l1i", "l1d", "l2", "llc", "branch_mpki",
                 "branch", "p50_latency", "p99_latency", "error_rate")
})
#: where each stage's pool work runs: killing a worker there breaks the
#: pool in that stage (module, function called inside the worker task)
STAGES = {
    "collection": (collector_module, "_collect_service_artifacts"),
    "tier": (pipeline_module, "extract_service_features"),
    "gate": (gate_module, "run_experiment"),
}


def _cloner(executor: str, **options) -> DittoCloner:
    return DittoCloner(executor=executor, max_workers=2, **options)


def _impossible(policy: RemediationPolicy) -> CloneRequest:
    """:data:`REQUEST` gated by :data:`IMPOSSIBLE` under ``policy``."""
    return replace(REQUEST, validate=IMPOSSIBLE, remediation=policy)


def _children() -> set:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def inline_replays(monkeypatch):
    """Count the gate's in-process replays, per deployment replayed."""
    counts = {"original": 0, "clone": 0}
    replay = gate_module.run_experiment

    def counting(deployment, load, config):
        counts["original" if deployment is ORIGINAL else "clone"] += 1
        return replay(deployment, load, config)

    monkeypatch.setattr(gate_module, "run_experiment", counting)
    return counts


def _experiments(telemetry: Telemetry) -> float:
    return telemetry.registry.get("ditto_experiments_total").total()


def _degradations(telemetry: Telemetry) -> float:
    counter = telemetry.registry.get("ditto_pipeline_degradations_total")
    return 0 if counter is None else counter.total()


def _gate_sides(telemetry: Telemetry) -> list:
    """Where each gate evaluation replayed the original."""
    return [record.args["original"]
            for record in telemetry.spans.by_name()["fidelity_gate"]]


@pytest.fixture(scope="module")
def serial_clone():
    """The serial reference: report, experiment count, profile digest."""
    telemetry = Telemetry()
    report = _cloner("serial", telemetry=telemetry).clone(REQUEST).report
    return (report.fidelity.to_dict(), _experiments(telemetry),
            stable_digest(report.profile))


@pytest.fixture(scope="module")
def serial_report(serial_clone):
    return serial_clone[0]


def _killing(real):
    """``real``, except that it kills any process but this one."""
    parent = os.getpid()

    def kill_in_worker(*args):
        if os.getpid() != parent:
            os._exit(17)
        return real(*args)

    return kill_in_worker


def _raising(real):
    """``real``, except that it raises in any process but this one."""
    parent = os.getpid()

    def raise_in_worker(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker replay failed")
        return real(*args)

    return raise_in_worker


def _tier_fails(_artifacts):
    raise RuntimeError("tier keeps failing")


class _CancelOnTuning(CloneObserver):
    def on_phase(self, phase, *, attempt=0, reason=""):
        if phase == "tuning":
            raise JobCancelledError("cancelled with the pool running")


class TestOverlappedGate:
    def test_process_report_equals_serial(self, serial_clone,
                                          inline_replays):
        report, experiments, profile = serial_clone
        before = _children()
        telemetry = Telemetry()
        result = _cloner("process", telemetry=telemetry).clone(REQUEST)
        assert result.report.executor == "process"
        assert result.report.fidelity.to_dict() == report
        assert stable_digest(result.report.profile) == profile
        # the original replayed in a worker, the clone in this process
        assert inline_replays == {"original": 0, "clone": 1}
        assert _gate_sides(telemetry) == ["worker"]
        # the worker's replay is folded into the parent's session
        assert _experiments(telemetry) == experiments
        assert _degradations(telemetry) == 0
        assert _children() <= before

    def test_serial_replays_inline(self, serial_report, inline_replays):
        report = _cloner("serial").clone(REQUEST).report.fidelity
        assert report.to_dict() == serial_report
        assert inline_replays == {"original": 1, "clone": 1}

    @pytest.mark.parametrize("reseed", [True, False])
    def test_remediation_rung_replays_both_sides_afresh(
            self, inline_replays, reseed):
        policy = RemediationPolicy(max_attempts=1, reseed=reseed)
        serial = Telemetry()
        with pytest.raises(FidelityGateError) as expected:
            _cloner("serial", telemetry=serial).clone(_impossible(policy))
        inline_replays.update(original=0, clone=0)
        before = _children()
        telemetry = Telemetry()
        with pytest.raises(FidelityGateError) as failure:
            _cloner("process", telemetry=telemetry).clone(
                _impossible(policy))
        assert failure.value.attempts == expected.value.attempts == 2
        assert failure.value.report.to_dict() \
            == expected.value.report.to_dict()
        # each attempt replayed the original in the pool, afresh
        assert inline_replays == {"original": 0, "clone": 2}
        assert _gate_sides(telemetry) == ["worker", "worker"]
        assert _experiments(telemetry) == _experiments(serial)
        assert _children() <= before

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_killed_worker_falls_back_to_serial(
            self, serial_clone, inline_replays, monkeypatch, stage):
        report, _experiments_serial, profile = serial_clone
        module, name = STAGES[stage]
        monkeypatch.setattr(module, name, _killing(getattr(module, name)))
        before = _children()
        telemetry = Telemetry()
        result = _cloner("process", telemetry=telemetry).clone(REQUEST)
        assert result.report.fidelity.to_dict() == report
        assert stable_digest(result.report.profile) == profile
        # the pool broke once, and every later stage ran in the parent
        assert _degradations(telemetry) == 1
        assert result.report.executor == (
            "process" if stage == "gate" else "serial")
        assert inline_replays == {"original": 1, "clone": 1}
        assert _gate_sides(telemetry) == ["inline"]
        assert _children() <= before

    def test_raising_worker_replay_runs_once(self, inline_replays,
                                             monkeypatch):
        monkeypatch.setattr(gate_module, "run_experiment",
                            _raising(gate_module.run_experiment))
        before = _children()
        with pytest.raises(RuntimeError, match="worker replay failed"):
            _cloner("process").clone(REQUEST)
        # the original's replay raised in its worker; the parent
        # replayed only the clone and did not run the original again
        assert inline_replays == {"original": 0, "clone": 1}
        assert _children() <= before

    def test_no_child_outlives_a_cancelled_clone(self):
        before = _children()
        with pytest.raises(JobCancelledError):
            _cloner("process", observer=_CancelOnTuning()).clone(REQUEST)
        assert _children() <= before

    def test_no_child_outlives_a_raising_clone(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "extract_service_features",
                            _tier_fails)
        before = _children()
        with pytest.raises(TierExecutionError):
            _cloner("process").clone(REQUEST)
        assert _children() <= before
