"""End-to-end cloning orchestration (the Fig. 3 pipeline).

:class:`DittoCloner` profiles a deployment once (at a representative
load, on one platform), extracts per-tier features, reconstructs the
topology from traces, generates synthetic skeleton+body per tier, and
optionally fine-tunes each tier's knobs. The result is a drop-in
synthetic :class:`~repro.app.service.Deployment` with the same service
names, placements and entry point — runnable anywhere the original runs,
without reprofiling (§4.1 Portability). What to clone, and every option
that shapes the clone, comes from one
:class:`~repro.core.request.CloneRequest`, resolved once on entry; the
cloner itself holds only execution infrastructure.

The per-tier stage runs through :mod:`repro.core.pipeline`: tiers fan
out across a process pool (or a serial loop — see ``executor``), each
with deterministically derived seeds and a private
:class:`~repro.runtime.expcache.ExperimentCache` memoizing its tuning
measurements, so parallel and serial clones are bit-identical.

A gated clone on the process executor also takes the fidelity gate's
replay of the original off its critical path: that replay depends only
on the request, so it runs in a one-worker pool while profiling and the
tier fan-out run (see :class:`_EarlyBaseline`).
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.app.service import Deployment, Placement, ServiceSpec
from repro.core.features import ServiceFeatures
from repro.core.finetune import FineTuneResult
from repro.core.pipeline import (
    EXECUTOR_MODES,
    TierTask,
    derive_tier_seed,
    resolve_executor,
    run_tier_pipeline,
)
from repro.core.request import CloneRequest
from repro.core.topology import TopologySummary, analyze_topology
from repro.loadgen.generator import LoadSpec
from repro.profiling.collector import ApplicationProfile, profile_deployment
from repro.runtime.expcache import CacheStats
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.runtime.metrics import RunResult
from repro.telemetry.context import current_session
from repro.telemetry.session import Telemetry, WorkerTelemetry
from repro.telemetry.spans import span
from repro.util.errors import (
    ConfigurationError,
    FidelityGateError,
    SimBudgetExceededError,
    TierExecutionError,
)
from repro.util.rng import derive_seed
from repro.validation.gate import FidelityReport
from repro.validation.remediate import RemediationStep


@dataclass
class CloneReport:
    """What the cloning session produced and how well tuning went."""

    features: Dict[str, ServiceFeatures]
    topology: Optional[TopologySummary]
    tuning: Dict[str, FineTuneResult] = field(default_factory=dict)
    profile: Optional[ApplicationProfile] = None
    #: resolved executor mode the per-tier pipeline ran under
    executor: str = "serial"
    #: per-tier pipeline-stage wall-clock, seconds
    tier_seconds: Dict[str, float] = field(default_factory=dict)
    #: experiment-memoization counters aggregated across tiers
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: the observability session the clone ran under (spans, metrics,
    #: sim timeline, Chrome-trace/report export); None when telemetry
    #: was not enabled on the cloner
    telemetry: Optional[Telemetry] = None
    #: fidelity-gate verdict for the accepted clone; None when the
    #: request was not gated
    fidelity: Optional[FidelityReport] = None
    #: remediation rungs climbed before this clone was produced (empty
    #: when the first attempt was accepted)
    remediation: List[RemediationStep] = field(default_factory=list)
    #: the seed each tier's body was generated with (derived from the
    #: accepted attempt's seed); a bundle records it so its consumers
    #: regenerate this exact clone
    generator_seeds: Dict[str, int] = field(default_factory=dict)

    def tier_names(self) -> List[str]:
        """Cloned tiers."""
        return sorted(self.features)


@dataclass(frozen=True)
class CloneResult:
    """A finished clone: ``result.synthetic`` and ``result.report``."""

    synthetic: Deployment
    report: CloneReport


class CloneObserver:
    """Lifecycle hooks a cloning session calls at phase boundaries.

    The fleet control plane's bridge into :class:`DittoCloner`: an
    observer hears every phase change (``"profiling"`` →
    ``"tuning"`` → ``"validating"``, with ``"tuning"`` re-entered per
    remediation rung) and every planned
    :class:`~repro.validation.remediate.RemediationStep`, and may raise
    from :meth:`on_phase` to abort the clone (the fleet raises
    :class:`~repro.util.errors.JobCancelledError` when a cancel marker
    appears). The default implementation is a no-op, and a cloner
    without an observer behaves bit-identically to previous releases.
    """

    def on_phase(self, phase: str, *, attempt: int = 0,
                 reason: str = "") -> None:
        """Called when the clone enters ``phase``; may raise to abort."""

    def on_remediation(self, step: RemediationStep) -> None:
        """Called when a remediation rung has been planned."""


def _replay_original(
    deployment: Deployment, load: LoadSpec, config: ExperimentConfig,
    collect_telemetry: bool,
) -> Tuple[RunResult, Optional[WorkerTelemetry]]:
    """The fidelity gate's replay of the original, in a pool worker."""
    if not collect_telemetry:
        return run_experiment(deployment, load, config), None
    session = Telemetry.for_worker()
    session.activate()
    try:
        result = run_experiment(deployment, load, config)
    finally:
        session.deactivate()
    return result, session.payload()


class _EarlyBaseline:
    """Attempt 0's replay of the original, started before profiling.

    The gate's original replay depends only on the request, so a gated
    process-executor clone runs it in a one-worker pool of its own and
    profiles meanwhile. The gate uses it only on attempt 0 and only for
    the inputs it was started with; remediation rungs, a worker that
    dies and a replay that raises all replay inline, as serial clones
    always do.
    """

    def __init__(self, deployment: Deployment, load: LoadSpec,
                 config: ExperimentConfig,
                 telemetry: Optional[Telemetry]) -> None:
        self.inputs = (deployment, load, config)
        self._telemetry = telemetry
        self._pool = ProcessPoolExecutor(max_workers=1)
        self._future = self._pool.submit(
            _replay_original, deployment, load, config,
            telemetry is not None)

    def replays(self, deployment: Deployment, load: LoadSpec,
                config: ExperimentConfig) -> bool:
        """Whether this is the replay of these gate inputs."""
        started_with, started_load, started_config = self.inputs
        return (deployment is started_with and load == started_load
                and config == started_config)

    def result(self) -> Optional[RunResult]:
        """Wait for the replay; None when the worker failed."""
        try:
            result, payload = self._future.result()
        except Exception:  # noqa: BLE001 — a broken pool or a raising run
            return None
        if self._telemetry is not None:
            self._telemetry.absorb(payload)
        return result

    def close(self) -> None:
        """Stop the pool; waits out a replay still running."""
        self._pool.shutdown(wait=True, cancel_futures=True)


class DittoCloner:
    """The automated cloning framework.

    What to clone, and every option that shapes the clone, lives on the
    :class:`~repro.core.request.CloneRequest` passed to :meth:`clone`.
    The cloner holds only execution infrastructure, none of which
    changes clone output. All parameters are keyword-only and validated
    here, so a bad setting fails at construction.

    ``executor`` selects how the per-tier stage fans out: ``"process"``
    (pool of worker processes), ``"serial"``, or ``"auto"`` (the
    default: a process pool whenever there is more than one tier and
    more than one CPU, else serial).

    ``tier_retries`` re-runs a failed tier that many extra times before
    the pipeline gives up with a
    :class:`~repro.util.errors.TierExecutionError` (which still carries
    the sibling tiers' finished outcomes); a broken worker pool falls
    back to serial for the tiers it had not finished.
    ``checkpoint_dir`` persists each finished tier outcome to disk so a
    killed clone resumes from where it stopped instead of re-running
    completed tiers.

    ``telemetry`` opts the session into observability: pass ``True``
    (fresh :class:`~repro.telemetry.session.Telemetry`) or an existing
    session to share one registry/trace across clones. Every stage is
    then spanned, cache counters land in the session registry (workers
    included — their payloads merge back in), profiling records a
    simulated-time timeline, and the finished
    :class:`CloneReport.telemetry` exports the Chrome trace / saved-run
    JSON. Telemetry never touches a random stream: clone output is
    bit-identical with it on or off.

    A request with ``validate=`` set is a *gated* clone: the finished
    synthetic is replayed against the original under matched seeds, and
    the per-metric verdict lands on :class:`CloneReport.fidelity`. A
    clone that fails the gate is not returned silently — the cloner
    climbs the request's ``remediation`` ladder (derived re-seeds and
    widened tune budgets, on the clone's own executor) and, if every
    rung fails, raises :class:`~repro.util.errors.FidelityGateError`
    carrying the failing report *and* the clone, so callers can inspect
    or salvage it. The same ladder retries tiers whose simulations trip
    a watchdog budget (:class:`~repro.util.errors.SimBudgetExceededError`).
    """

    def __init__(
        self,
        *,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        tier_retries: int = 1,
        checkpoint_dir: Optional[str] = None,
        telemetry: Union[bool, Telemetry, None] = None,
        observer: Optional[CloneObserver] = None,
        shared_cache_dir: Optional[str] = None,
    ) -> None:
        if executor not in EXECUTOR_MODES:
            raise ConfigurationError(
                f"unknown executor {executor!r}; "
                f"expected one of {EXECUTOR_MODES}")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}")
        if not isinstance(tier_retries, int) \
                or isinstance(tier_retries, bool) or tier_retries < 0:
            raise ConfigurationError(
                f"tier_retries must be an int >= 0, got {tier_retries!r}")
        if checkpoint_dir is not None and not isinstance(checkpoint_dir, str):
            raise ConfigurationError(
                f"checkpoint_dir must be a path string, "
                f"got {checkpoint_dir!r}")
        self.executor = executor
        self.max_workers = max_workers
        self.tier_retries = tier_retries
        self.checkpoint_dir = checkpoint_dir
        if telemetry is True:
            telemetry = Telemetry()
        elif telemetry is False:
            telemetry = None
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            raise ConfigurationError(
                f"telemetry must be a Telemetry session or a bool, "
                f"got {telemetry!r}")
        self.telemetry = telemetry
        if observer is not None and not isinstance(observer, CloneObserver):
            raise ConfigurationError(
                f"observer must be a CloneObserver, got {observer!r}")
        self.observer = observer
        if shared_cache_dir is not None \
                and not isinstance(shared_cache_dir, str):
            raise ConfigurationError(
                f"shared_cache_dir must be a path string, "
                f"got {shared_cache_dir!r}")
        self.shared_cache_dir = shared_cache_dir

    def _phase(self, phase: str, *, attempt: int = 0,
               reason: str = "") -> None:
        """Notify the observer of a phase boundary (may raise to abort)."""
        if self.observer is not None:
            self.observer.on_phase(phase, attempt=attempt, reason=reason)

    def clone(self, request: CloneRequest) -> CloneResult:
        """Clone the request's deployment; returns a :class:`CloneResult`.

        Profiling happens once, at the request's load on its
        ``config.platform`` — the synthetic deployment then runs on any
        platform or load without reprofiling.
        """
        request = self._resolve(request)
        with self._observed(), self._early_baseline(request) as baseline:
            self._phase("profiling")
            with span("profiling",
                      service=request.deployment.entry_service,
                      tiers=len(request.deployment.services)):
                profile = profile_deployment(
                    request.deployment, request.load, request.config,
                    budget=request.budget, seed=request.seed,
                )
            return self._clone_from_profile(profile, request,
                                            baseline=baseline)

    @staticmethod
    def _resolve(request: CloneRequest) -> CloneRequest:
        if not isinstance(request, CloneRequest):
            raise ConfigurationError(
                f"expected a repro.CloneRequest, got "
                f"{type(request).__name__}")
        return request.resolved()

    @contextlib.contextmanager
    def _early_baseline(
        self, request: CloneRequest,
    ) -> Iterator[Optional[_EarlyBaseline]]:
        """Attempt 0's original replay, started now on a gated process
        clone (None otherwise); its pool closes on every exit path."""
        mode = resolve_executor(self.executor,
                                n_tasks=len(request.deployment.services),
                                max_workers=self.max_workers)
        if request.validate is None or mode != "process":
            yield None
            return
        baseline = _EarlyBaseline(
            request.deployment, request.validation_load,
            self._gate_config(request.config, request.seed),
            self.telemetry)
        try:
            yield baseline
        finally:
            baseline.close()

    def clone_from_profile(self, profile: ApplicationProfile,
                           request: CloneRequest) -> CloneResult:
        """Run the per-tier pipeline over an existing profiling session.

        Splitting this from :meth:`clone` lets callers re-generate (e.g.
        with a different generator config or tuning budget on the
        request, or on another executor) without paying for profiling
        again — the fleet worker also enters here when it runs a job
        whose profile is already in the store. A gated request is gated
        and remediated exactly as in :meth:`clone`.
        """
        return self._clone_from_profile(profile, self._resolve(request))

    def _clone_from_profile(
        self,
        profile: ApplicationProfile,
        request: CloneRequest,
        *,
        baseline: Optional[_EarlyBaseline] = None,
    ) -> CloneResult:
        deployment = request.deployment
        with self._observed():
            topology: Optional[TopologySummary] = None
            if len(deployment.services) > 1:
                with span("topology_analysis",
                          spans=len(profile.spans)):
                    topology = analyze_topology(profile.spans)
            steps: List[RemediationStep] = []
            seed = request.seed
            max_tune_iterations = request.max_tune_iterations
            attempt = 0
            while True:
                failure: Optional[Exception] = None
                result: Optional[CloneResult] = None
                try:
                    result = self._clone_attempt(
                        profile, request, topology, steps, seed=seed,
                        max_tune_iterations=max_tune_iterations,
                        baseline=baseline)
                except (SimBudgetExceededError, TierExecutionError) as error:
                    reason = self._budget_reason(error)
                    if reason is None or request.remediation is None:
                        raise
                    failure = error
                else:
                    verdict = result.report.fidelity
                    if verdict is None or verdict.passed:
                        return result
                    reason = "gate_failure"
                attempt += 1
                step = None
                if request.remediation is not None:
                    step = request.remediation.plan(
                        attempt, reason=reason, base_seed=request.seed,
                        base_tune_iterations=request.max_tune_iterations)
                if step is None:
                    if failure is not None:
                        raise failure
                    verdict = result.report.fidelity
                    raise FidelityGateError(
                        f"clone of {deployment.entry_service!r} failed "
                        f"its fidelity gate after {attempt} attempt(s): "
                        f"{len(verdict.failures())} metric check(s) out "
                        f"of tolerance "
                        f"({', '.join(sorted({c.metric for c in verdict.failures()}))})",
                        report=verdict, result=result, attempts=attempt)
                steps.append(step)
                if self.observer is not None:
                    self.observer.on_remediation(step)
                self._count_remediation(step)
                seed = step.seed
                max_tune_iterations = step.max_tune_iterations

    def _clone_attempt(
        self,
        profile: ApplicationProfile,
        request: CloneRequest,
        topology: Optional[TopologySummary],
        steps: List[RemediationStep],
        *,
        seed: int,
        max_tune_iterations: int,
        baseline: Optional[_EarlyBaseline] = None,
    ) -> CloneResult:
        """One pipeline pass plus (when gated) its fidelity gate."""
        self._phase("tuning", attempt=len(steps),
                    reason=steps[-1].reason if steps else "")
        deployment = request.deployment
        tasks = [
            self._tier_task(profile, name, request, seed=seed,
                            max_tune_iterations=max_tune_iterations)
            for name in deployment.services
        ]
        outcomes, mode = run_tier_pipeline(
            tasks, executor=self.executor, max_workers=self.max_workers,
            tier_retries=self.tier_retries,
            checkpoint_dir=self.checkpoint_dir)
        report = CloneReport(features={}, topology=topology,
                             profile=profile, executor=mode,
                             telemetry=self.telemetry,
                             remediation=list(steps),
                             generator_seeds={
                                 t.artifacts.service: t.generator_config.seed
                                 for t in tasks})
        synthetic_services: Dict[str, ServiceSpec] = {}
        for outcome in outcomes:
            report.features[outcome.service] = outcome.features
            if outcome.tuning is not None:
                report.tuning[outcome.service] = outcome.tuning
            report.tier_seconds[outcome.service] = outcome.wall_clock_s
            report.cache_stats.merge(outcome.cache_stats)
            synthetic_services[outcome.service] = outcome.spec
            if self.telemetry is not None:
                self.telemetry.absorb(outcome.telemetry)
        self._record_report(report)
        synthetic = Deployment(
            services=synthetic_services,
            placements=[Placement(p.service, p.node)
                        for p in deployment.placements],
            entry_service=deployment.entry_service,
        )
        with span("interface_validation"):
            self._validate_interfaces(synthetic)
        if request.validate is not None:
            self._phase("validating", attempt=len(steps))
            load = request.validation_load
            gate_config = self._gate_config(request.config, seed)
            early = None
            if baseline is not None and not steps \
                    and baseline.replays(deployment, load, gate_config):
                early = baseline.result
            report.fidelity = request.validate.validate(
                deployment, synthetic, load, gate_config,
                label=deployment.entry_service, baseline=early)
        return CloneResult(synthetic=synthetic, report=report)

    @staticmethod
    def _gate_config(profiling_config: ExperimentConfig,
                     seed: int) -> ExperimentConfig:
        """The config the gate replays an attempt with ``seed`` under.

        Gate under a clean config: validation measures the clone's
        intrinsic fidelity, not its behaviour under injected faults; the
        seed is derived from the attempt's seed so remediation re-seeds
        the gate runs too. Watchdog budgets carry over — a livelocked
        gate run trips remediation.
        """
        return replace(profiling_config, tracer=None, fault_plan=None,
                       resilience=None, seed=derive_seed(seed, "validate"))

    @staticmethod
    def _budget_reason(error: Exception) -> Optional[str]:
        """``"sim_budget"`` when a watchdog trip caused this failure."""
        if isinstance(error, SimBudgetExceededError):
            return "sim_budget"
        if isinstance(error, TierExecutionError) and isinstance(
                error.last_error, SimBudgetExceededError):
            return "sim_budget"
        return None

    @staticmethod
    def _count_remediation(step: RemediationStep) -> None:
        session = current_session()
        if session is None:
            return
        session.registry.counter(
            "ditto_remediation_attempts_total",
            "self-healing retries the cloner made", ("reason",),
        ).inc(1, reason=step.reason)

    @contextlib.contextmanager
    def _observed(self) -> Iterator[Optional[Telemetry]]:
        """Activate the cloner's telemetry session, if any (re-entrant)."""
        if self.telemetry is None:
            yield None
            return
        self.telemetry.activate()
        try:
            yield self.telemetry
        finally:
            self.telemetry.deactivate()

    def _record_report(self, report: CloneReport) -> None:
        """Back the report's ad-hoc fields with registry metrics."""
        if self.telemetry is None:
            return
        registry = self.telemetry.registry
        tier_seconds = registry.gauge(
            "ditto_pipeline_tier_seconds",
            "per-tier pipeline-stage wall clock", ("tier",))
        tier_histogram = registry.histogram(
            "ditto_tier_clone_seconds",
            "distribution of per-tier clone durations")
        for tier, seconds in report.tier_seconds.items():
            tier_seconds.set(seconds, tier=tier)
            tier_histogram.observe(seconds)
        registry.counter(
            "ditto_clones_total", "clone sessions finished",
            ("executor",)).inc(1, executor=report.executor)

    def _tier_task(
        self,
        profile: ApplicationProfile,
        name: str,
        request: CloneRequest,
        *,
        seed: int,
        max_tune_iterations: int,
    ) -> TierTask:
        """Build one tier's pipeline payload with derived seeds.

        ``seed``/``max_tune_iterations`` are the attempt's: the
        request's own, or a remediation rung's (the task digest then
        changes too, so a retried tier never resurrects the failed
        attempt's checkpoint).
        """
        generator_config = replace(
            request.generator_config,
            seed=derive_tier_seed(seed, name, "bodygen"),
        )
        tune_config: Optional[ExperimentConfig] = None
        if request.fine_tune_tiers:
            # Tuning must measure the tier's clean behaviour: carrying
            # the profiling run's fault plan or resilience policy into
            # the calibration loop would fit knobs to injected noise.
            tune_config = replace(
                request.config, tracer=None,
                fault_plan=None, resilience=None,
                seed=derive_tier_seed(seed, name, "finetune"),
            )
        return TierTask(
            artifacts=profile.artifacts(name),
            generator_config=generator_config,
            tune_config=tune_config,
            max_tune_iterations=max_tune_iterations,
            collect_telemetry=self.telemetry is not None,
            shared_cache_dir=self.shared_cache_dir,
        )

    @staticmethod
    def _validate_interfaces(deployment: Deployment) -> None:
        """Every generated RPC must land on an existing handler."""
        for name, spec in deployment.services.items():
            for handler in spec.program.handlers.values():
                for rpc in handler.rpcs:
                    target = deployment.services.get(rpc.target_service)
                    if target is None:
                        raise ConfigurationError(
                            f"clone of {name!r} calls missing tier "
                            f"{rpc.target_service!r}")
                    target.program.handler(rpc.handler)
