"""End-to-end cloning orchestration (the Fig. 3 pipeline).

:class:`DittoCloner` profiles a deployment once (at a representative
load, on one platform), extracts per-tier features, reconstructs the
topology from traces, generates synthetic skeleton+body per tier, and
optionally fine-tunes each tier's knobs. The result is a drop-in
synthetic :class:`~repro.app.service.Deployment` with the same service
names, placements and entry point — runnable anywhere the original runs,
without reprofiling (§4.1 Portability).

The per-tier stage runs through :mod:`repro.core.pipeline`: tiers fan
out across a process pool (or thread pool / serial loop — see
``executor``), each with deterministically derived seeds and a private
:class:`~repro.runtime.expcache.ExperimentCache` memoizing its tuning
measurements, so parallel and serial clones are bit-identical.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.app.service import Deployment, Placement, ServiceSpec
from repro.core.body_gen import GeneratorConfig
from repro.core.features import ServiceFeatures
from repro.core.request import CloneRequest
from repro.core.finetune import DEFAULT_MAX_TUNE_ITERATIONS, FineTuneResult
from repro.core.pipeline import (
    EXECUTOR_MODES,
    TierTask,
    derive_tier_seed,
    run_tier_pipeline,
)
from repro.core.topology import TopologySummary, analyze_topology
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import ProfilingBudget
from repro.profiling.collector import ApplicationProfile, profile_deployment
from repro.runtime.expcache import CacheStats
from repro.runtime.experiment import ExperimentConfig
from repro.telemetry.context import current_session
from repro.telemetry.session import Telemetry
from repro.telemetry.spans import span
from repro.util.errors import (
    ConfigurationError,
    FidelityGateError,
    SimBudgetExceededError,
    TierExecutionError,
)
from repro.util.rng import derive_seed
from repro.validation.gate import FidelityGate, FidelityReport
from repro.validation.remediate import RemediationPolicy, RemediationStep


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
    #: cloner ran without ``validate=``
    fidelity: Optional[FidelityReport] = None
    #: remediation rungs climbed before this clone was produced (empty
    #: when the first attempt was accepted)
    remediation: List[RemediationStep] = field(default_factory=list)

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


class DittoCloner:
    """The automated cloning framework.

    All parameters are keyword-only and validated here, so a bad knob
    fails at construction instead of minutes later inside a tuning loop.

    ``executor`` selects how the per-tier stage fans out: ``"process"``
    (pool of worker processes), ``"thread"``, ``"serial"``, or
    ``"auto"`` (the default: a process pool whenever there is more than
    one tier and more than one CPU, else serial).

    ``tier_retries`` re-runs a failed tier that many extra times before
    the pipeline gives up with a
    :class:`~repro.util.errors.TierExecutionError` (which still carries
    the sibling tiers' finished outcomes); a broken worker pool
    degrades process → thread → serial automatically.
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

    ``validate`` turns the clone into a *gated* clone: pass ``True``
    (default tolerances) or a configured
    :class:`~repro.validation.gate.FidelityGate`, and the finished
    synthetic is replayed against the original under matched seeds; the
    per-metric verdict lands on :class:`CloneReport.fidelity`. A clone
    that fails the gate is not returned silently — the cloner climbs
    the ``remediation`` ladder (:class:`RemediationPolicy`: derived
    re-seeds, widened tune budgets, degraded executors) and, if every
    rung fails, raises
    :class:`~repro.util.errors.FidelityGateError` carrying the failing
    report *and* the clone, so callers can inspect or salvage it. The
    same ladder retries tiers whose simulations trip a watchdog budget
    (:class:`~repro.util.errors.SimBudgetExceededError`). With
    ``validate=None`` (the default) none of this machinery runs and
    clone output is bit-identical to previous releases.
    """

    def __init__(
        self,
        *,
        generator_config: Optional[GeneratorConfig] = None,
        budget: Optional[ProfilingBudget] = None,
        fine_tune_tiers: bool = True,
        max_tune_iterations: int = DEFAULT_MAX_TUNE_ITERATIONS,
        seed: int = 17,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        tier_retries: int = 1,
        checkpoint_dir: Optional[str] = None,
        telemetry: Union[bool, Telemetry, None] = None,
        validate: Union[bool, FidelityGate, None] = None,
        remediation: Optional[RemediationPolicy] = None,
        observer: Optional[CloneObserver] = None,
        shared_cache_dir: Optional[str] = None,
    ) -> None:
        if not isinstance(max_tune_iterations, int) \
                or isinstance(max_tune_iterations, bool) \
                or max_tune_iterations < 1:
            raise ConfigurationError(
                f"max_tune_iterations must be an int >= 1, "
                f"got {max_tune_iterations!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError(f"seed must be an int, got {seed!r}")
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
        self.generator_config = (generator_config if generator_config
                                 is not None else GeneratorConfig())
        self.budget = budget if budget is not None else ProfilingBudget()
        self.fine_tune_tiers = fine_tune_tiers
        self.max_tune_iterations = max_tune_iterations
        self.seed = seed
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
        if validate is True:
            validate = FidelityGate()
        elif validate is False:
            validate = None
        if validate is not None and not isinstance(validate, FidelityGate):
            raise ConfigurationError(
                f"validate must be a FidelityGate or a bool, "
                f"got {validate!r}")
        self.validate = validate
        if remediation is not None \
                and not isinstance(remediation, RemediationPolicy):
            raise ConfigurationError(
                f"remediation must be a RemediationPolicy, "
                f"got {remediation!r}")
        if remediation is None and validate is not None:
            # Gated clones self-heal by default; pass
            # RemediationPolicy(max_attempts=0) for a strict single shot.
            remediation = RemediationPolicy()
        self.remediation = remediation
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

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #
    @classmethod
    def for_request(cls, request: CloneRequest,
                    **overrides: Any) -> "DittoCloner":
        """A cloner configured from ``request``'s option fields.

        ``overrides`` (executor, checkpoint_dir, observer, telemetry,
        shared_cache_dir, ...) win over the request — this is how the
        fleet worker pins its per-job infrastructure while the request
        keeps the reproducibility knobs.
        """
        kwargs = request.cloner_options()
        kwargs.update(overrides)
        return cls(**kwargs)

    def _effective(self, request: CloneRequest) -> "DittoCloner":
        """``self`` with the request's option overrides applied."""
        options = request.cloner_options()
        if not options:
            return self
        kwargs: Dict[str, Any] = dict(
            generator_config=self.generator_config, budget=self.budget,
            fine_tune_tiers=self.fine_tune_tiers,
            max_tune_iterations=self.max_tune_iterations, seed=self.seed,
            executor=self.executor, max_workers=self.max_workers,
            tier_retries=self.tier_retries,
            checkpoint_dir=self.checkpoint_dir, telemetry=self.telemetry,
            validate=self.validate, remediation=self.remediation,
            observer=self.observer, shared_cache_dir=self.shared_cache_dir)
        kwargs.update(options)
        return type(self)(**kwargs)

    def _phase(self, phase: str, *, attempt: int = 0,
               reason: str = "") -> None:
        """Notify the observer of a phase boundary (may raise to abort)."""
        if self.observer is not None:
            self.observer.on_phase(phase, attempt=attempt, reason=reason)

    def clone(self, request: CloneRequest) -> CloneResult:
        """Clone the request's deployment; returns a :class:`CloneResult`.

        Option fields set on the :class:`CloneRequest` override this
        cloner's knobs for the call. Profiling happens once, at the
        request's load on its ``config.platform`` — the synthetic
        deployment then runs on any platform or load without
        reprofiling.
        """
        if not isinstance(request, CloneRequest):
            raise ConfigurationError(
                f"clone() takes a repro.CloneRequest, got "
                f"{type(request).__name__}")
        cloner = self._effective(request)
        config = request.effective_config()
        with cloner._observed():
            cloner._phase("profiling")
            with span("profiling",
                      service=request.deployment.entry_service,
                      tiers=len(request.deployment.services)):
                profile = profile_deployment(
                    request.deployment, request.load, config,
                    budget=cloner.budget, seed=cloner.seed,
                )
            return cloner._clone_from_profile(
                profile,
                deployment=request.deployment,
                profiling_config=config,
                validation_load=request.effective_validation_load(),
            )

    def clone_from_profile(
        self,
        profile: ApplicationProfile,
        *,
        request: Optional[CloneRequest] = None,
        deployment: Optional[Deployment] = None,
        profiling_config: Optional[ExperimentConfig] = None,
        validation_load: Optional[LoadSpec] = None,
    ) -> CloneResult:
        """Run the per-tier pipeline over an existing profiling session.

        Splitting this from :meth:`clone` lets callers re-generate (e.g.
        with different generator configs, tuning budgets or executors)
        without paying for profiling again — the fleet worker also
        enters here when it resumes a job whose profile is already in
        the store. Pass either ``request=`` (its option fields override
        this cloner's knobs, as in :meth:`clone`) or the explicit
        ``deployment``/``profiling_config``/``validation_load`` trio.
        With ``validate=`` set, the finished clone is gated against the
        original under ``validation_load`` (reconstructed from the
        profile when not given) and remediated on failure — see the
        class docstring.
        """
        if request is not None:
            if deployment is not None or profiling_config is not None \
                    or validation_load is not None:
                raise ConfigurationError(
                    "pass either request= or the explicit "
                    "deployment/profiling_config/validation_load set, "
                    "not both")
            cloner = self._effective(request)
            return cloner._clone_from_profile(
                profile,
                deployment=request.deployment,
                profiling_config=request.effective_config(),
                validation_load=request.effective_validation_load(),
            )
        if deployment is None or profiling_config is None:
            raise ConfigurationError(
                "clone_from_profile needs a request= or both deployment "
                "and profiling_config")
        return self._clone_from_profile(
            profile, deployment=deployment,
            profiling_config=profiling_config,
            validation_load=validation_load)

    def _clone_from_profile(
        self,
        profile: ApplicationProfile,
        *,
        deployment: Deployment,
        profiling_config: ExperimentConfig,
        validation_load: Optional[LoadSpec] = None,
    ) -> CloneResult:
        with self._observed():
            topology: Optional[TopologySummary] = None
            if len(deployment.services) > 1:
                with span("topology_analysis",
                          spans=len(profile.spans)):
                    topology = analyze_topology(profile.spans)
            steps: List[RemediationStep] = []
            seed = self.seed
            max_tune_iterations = self.max_tune_iterations
            executor = self.executor
            attempt = 0
            while True:
                failure: Optional[Exception] = None
                result: Optional[CloneResult] = None
                try:
                    result = self._clone_attempt(
                        profile, deployment, profiling_config, topology,
                        steps, validation_load, seed=seed,
                        max_tune_iterations=max_tune_iterations,
                        executor=executor)
                except (SimBudgetExceededError, TierExecutionError) as error:
                    reason = self._budget_reason(error)
                    if reason is None or self.remediation is None:
                        raise
                    failure = error
                else:
                    verdict = result.report.fidelity
                    if verdict is None or verdict.passed:
                        return result
                    reason = "gate_failure"
                attempt += 1
                step = None
                if self.remediation is not None:
                    step = self.remediation.plan(
                        attempt, reason=reason, base_seed=self.seed,
                        base_tune_iterations=self.max_tune_iterations,
                        base_executor=self.executor)
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
                executor = step.executor

    def _clone_attempt(
        self,
        profile: ApplicationProfile,
        deployment: Deployment,
        profiling_config: ExperimentConfig,
        topology: Optional[TopologySummary],
        steps: List[RemediationStep],
        validation_load: Optional[LoadSpec],
        *,
        seed: int,
        max_tune_iterations: int,
        executor: str,
    ) -> CloneResult:
        """One pipeline pass plus (when configured) its fidelity gate."""
        self._phase("tuning", attempt=len(steps),
                    reason=steps[-1].reason if steps else "")
        tasks = [
            self._tier_task(profile, name, profiling_config, seed=seed,
                            max_tune_iterations=max_tune_iterations)
            for name in deployment.services
        ]
        outcomes, mode = run_tier_pipeline(
            tasks, executor=executor, max_workers=self.max_workers,
            tier_retries=self.tier_retries,
            checkpoint_dir=self.checkpoint_dir)
        report = CloneReport(features={}, topology=topology,
                             profile=profile, executor=mode,
                             telemetry=self.telemetry,
                             remediation=list(steps))
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
        if self.validate is not None:
            self._phase("validating", attempt=len(steps))
            load = (validation_load if validation_load is not None
                    else self._reconstruct_load(profile))
            # Gate under a clean config: validation measures the clone's
            # intrinsic fidelity, not its behaviour under injected
            # faults; the seed is derived from the attempt's seed so
            # remediation re-seeds the gate runs too. Watchdog budgets
            # carry over — a livelocked gate run trips remediation.
            gate_config = replace(
                profiling_config, tracer=None, fault_plan=None,
                resilience=None, seed=derive_seed(seed, "validate"))
            report.fidelity = self.validate.validate(
                deployment, synthetic, load, gate_config,
                label=deployment.entry_service)
        return CloneResult(synthetic=synthetic, report=report)

    @staticmethod
    def _reconstruct_load(profile: ApplicationProfile) -> LoadSpec:
        """A validation load matching what profiling observed."""
        if profile.profiling_qps > 0:
            return LoadSpec.open_loop(profile.profiling_qps)
        entry = profile.services.get(profile.entry_service)
        connections = entry.observed_connections if entry is not None else 0
        return LoadSpec(kind="closed", connections=max(1, connections))

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
        profiling_config: ExperimentConfig,
        *,
        seed: Optional[int] = None,
        max_tune_iterations: Optional[int] = None,
    ) -> TierTask:
        """Build one tier's pipeline payload with derived seeds.

        ``seed``/``max_tune_iterations`` default to the cloner's own;
        remediation passes its per-attempt overrides (the task digest
        then changes too, so a retried tier never resurrects the failed
        attempt's checkpoint).
        """
        seed = self.seed if seed is None else seed
        if max_tune_iterations is None:
            max_tune_iterations = self.max_tune_iterations
        generator_config = replace(
            self.generator_config,
            seed=derive_tier_seed(seed, name, "bodygen"),
        )
        tune_config: Optional[ExperimentConfig] = None
        if self.fine_tune_tiers:
            # Tuning must measure the tier's clean behaviour: carrying
            # the profiling run's fault plan or resilience policy into
            # the calibration loop would fit knobs to injected noise.
            tune_config = replace(
                profiling_config, tracer=None,
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
