"""The overlapped fidelity gate: same verdicts, original replayed early.

With ``validate=`` set and a process executor, :class:`DittoCloner`
replays the original in a one-worker pool while profiling runs, and
the gate then replays only the clone. These tests hold it to the
inline gate: equal reports on every path, no reuse of the early replay
by a remediation rung, an inline fallback when the worker dies, and no
child process left behind when the clone raises.
"""

import multiprocessing
import os

import pytest

from repro import (
    CloneRequest,
    Deployment,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
)
from repro.core import cloner as cloner_module
from repro.core.cloner import CloneObserver, DittoCloner
from repro.profiling import ProfilingBudget
from repro.telemetry import Telemetry
from repro.util.errors import FidelityGateError, JobCancelledError
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
)
#: zero tolerance everywhere: every attempt fails its gate
IMPOSSIBLE = FidelityGate({
    name: MetricTolerance(name, relative=1e-12)
    for name in ("ipc", "l1i", "l1d", "l2", "llc", "branch_mpki",
                 "branch", "p50_latency", "p99_latency", "error_rate")
})


def _cloner(executor: str, **options) -> DittoCloner:
    options.setdefault("validate", True)
    return DittoCloner(executor=executor, max_workers=2, **options)


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


@pytest.fixture(scope="module")
def serial_clone():
    """The inline-gate reference: its report and experiment count."""
    telemetry = Telemetry()
    report = _cloner("serial", telemetry=telemetry).clone(REQUEST).report
    return report.fidelity.to_dict(), _experiments(telemetry)


@pytest.fixture(scope="module")
def serial_report(serial_clone):
    return serial_clone[0]


def _serial_failure(policy: RemediationPolicy) -> FidelityGateError:
    with pytest.raises(FidelityGateError) as failure:
        _cloner("serial", validate=IMPOSSIBLE,
                remediation=policy).clone(REQUEST)
    return failure.value


def _die(*_args, **_kwargs):
    os._exit(17)


class _CancelOnTuning(CloneObserver):
    def on_phase(self, phase, *, attempt=0, reason=""):
        if phase == "tuning":
            raise JobCancelledError("cancelled while the original replays")


class TestOverlappedGate:
    def test_process_report_equals_serial(self, serial_clone,
                                          inline_replays):
        report, experiments = serial_clone
        before = _children()
        telemetry = Telemetry()
        result = _cloner("process", telemetry=telemetry).clone(REQUEST)
        assert result.report.executor == "process"
        assert result.report.fidelity.to_dict() == report
        # the original was replayed early, in the baseline worker
        assert inline_replays == {"original": 0, "clone": 1}
        assert len(telemetry.spans.by_name()["gate_baseline_wait"]) == 1
        # the worker's replay is folded into the parent's session
        assert _experiments(telemetry) == experiments
        assert _children() <= before

    def test_serial_replays_inline(self, serial_report, inline_replays):
        report = _cloner("serial").clone(REQUEST).report.fidelity
        assert report.to_dict() == serial_report
        assert inline_replays == {"original": 1, "clone": 1}

    @pytest.mark.parametrize("reseed", [True, False])
    def test_remediation_rung_never_reuses_the_baseline(
            self, inline_replays, reseed):
        policy = RemediationPolicy(max_attempts=1, reseed=reseed)
        expected = _serial_failure(policy)
        inline_replays.update(original=0, clone=0)
        before = _children()
        with pytest.raises(FidelityGateError) as failure:
            _cloner("process", validate=IMPOSSIBLE,
                    remediation=policy).clone(REQUEST)
        assert failure.value.attempts == expected.attempts == 2
        assert failure.value.report.to_dict() == expected.report.to_dict()
        # attempt 0 took the early replay; the rung replayed inline
        assert inline_replays == {"original": 1, "clone": 2}
        assert _children() <= before

    def test_killed_baseline_worker_falls_back_inline(
            self, serial_report, inline_replays, monkeypatch):
        monkeypatch.setattr(cloner_module, "_replay_original", _die)
        before = _children()
        result = _cloner("process").clone(REQUEST)
        assert result.report.fidelity.to_dict() == serial_report
        assert inline_replays == {"original": 1, "clone": 1}
        assert _children() <= before

    def test_no_child_outlives_a_cancelled_clone(self):
        before = _children()
        with pytest.raises(JobCancelledError):
            _cloner("process", observer=_CancelOnTuning()).clone(REQUEST)
        assert _children() <= before
