"""The typed clone-request spec shared by every cloning entry point.

A :class:`CloneRequest` is the *what* of a clone — the deployment to
clone, the profiling load/platform, and the reproducibility knobs (seed,
tuning budget, validation gate, fault/resilience options) — captured in
one frozen, keyword-only, picklable object. The same request drives all
three entry points:

- one-shot: ``DittoCloner().clone(request)``;
- re-generation: ``cloner.clone_from_profile(profile, request=request)``;
- fleet submission: ``FleetClient(store).submit(request)`` — the fleet
  job store keys jobs, shared profiles and the fleet-wide experiment
  cache by :meth:`CloneRequest.digest`.

Execution *infrastructure* (executor mode, worker counts, checkpoint
directories, telemetry sessions) deliberately stays off the request:
none of it changes clone output (the pipeline is bit-identical across
executors), so none of it belongs in the digest that decides whether
two jobs are the same experiment.

Option fields default to ``None``, meaning "inherit from the executing
cloner" — a request only pins what it cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Union

from repro.app.service import Deployment
from repro.core.body_gen import GeneratorConfig
from repro.faults.plan import FaultPlan
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import ProfilingBudget
from repro.runtime.experiment import ExperimentConfig
from repro.runtime.resilience import ResilienceConfig
from repro.util.errors import ConfigurationError
from repro.util.spec_hash import stable_digest
from repro.validation.gate import FidelityGate
from repro.validation.remediate import RemediationPolicy

__all__ = ["CloneRequest"]


@dataclass(frozen=True, kw_only=True)
class CloneRequest:
    """One clone, fully specified (frozen, keyword-only, picklable).

    ``deployment``/``load``/``config`` are the required *what*:
    profile ``deployment`` at ``load`` on ``config.platform``. The
    remaining fields are optional overrides of the executing
    :class:`~repro.core.cloner.DittoCloner`'s own knobs; ``None`` means
    "use the cloner's setting". ``validate`` is tri-state: ``None``
    inherits, ``False`` forces the gate off, ``True``/a configured
    :class:`~repro.validation.gate.FidelityGate` turns it on.

    ``fault_plan``/``resilience`` are folded into the experiment config
    (it is an error to set them both here and on ``config``), so a
    request can ask for a degraded-mode clone without rebuilding the
    config by hand.
    """

    deployment: Deployment
    load: LoadSpec
    config: ExperimentConfig
    #: load the fidelity gate replays under; defaults to ``load``
    validation_load: Optional[LoadSpec] = None
    seed: Optional[int] = None
    fine_tune_tiers: Optional[bool] = None
    max_tune_iterations: Optional[int] = None
    budget: Optional[ProfilingBudget] = None
    generator_config: Optional[GeneratorConfig] = None
    validate: Union[bool, FidelityGate, None] = None
    remediation: Optional[RemediationPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.deployment, Deployment):
            raise ConfigurationError(
                f"deployment must be a Deployment, got {self.deployment!r}")
        if not isinstance(self.load, LoadSpec):
            raise ConfigurationError(
                f"load must be a LoadSpec, got {self.load!r}")
        if not isinstance(self.config, ExperimentConfig):
            raise ConfigurationError(
                f"config must be an ExperimentConfig, got {self.config!r}")
        if self.validation_load is not None \
                and not isinstance(self.validation_load, LoadSpec):
            raise ConfigurationError(
                f"validation_load must be a LoadSpec, "
                f"got {self.validation_load!r}")
        if self.seed is not None and (not isinstance(self.seed, int)
                                      or isinstance(self.seed, bool)):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        if self.max_tune_iterations is not None and (
                not isinstance(self.max_tune_iterations, int)
                or isinstance(self.max_tune_iterations, bool)
                or self.max_tune_iterations < 1):
            raise ConfigurationError(
                f"max_tune_iterations must be an int >= 1, "
                f"got {self.max_tune_iterations!r}")
        if self.validate is not None and not isinstance(
                self.validate, (bool, FidelityGate)):
            raise ConfigurationError(
                f"validate must be a bool or FidelityGate, "
                f"got {self.validate!r}")
        if self.remediation is not None \
                and not isinstance(self.remediation, RemediationPolicy):
            raise ConfigurationError(
                f"remediation must be a RemediationPolicy, "
                f"got {self.remediation!r}")
        if self.fault_plan is not None \
                and self.config.fault_plan is not None:
            raise ConfigurationError(
                "fault_plan set on both the request and its config — "
                "pick one")
        if self.resilience is not None \
                and self.config.resilience is not None:
            raise ConfigurationError(
                "resilience set on both the request and its config — "
                "pick one")

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def effective_config(self) -> ExperimentConfig:
        """``config`` with request-level fault/resilience folded in."""
        if self.fault_plan is None and self.resilience is None:
            return self.config
        overrides: Dict[str, Any] = {}
        if self.fault_plan is not None:
            overrides["fault_plan"] = self.fault_plan
        if self.resilience is not None:
            overrides["resilience"] = self.resilience
        return replace(self.config, **overrides)

    def effective_validation_load(self) -> LoadSpec:
        """The load the fidelity gate replays under."""
        return self.validation_load if self.validation_load is not None \
            else self.load

    def cloner_options(self) -> Dict[str, Any]:
        """The non-``None`` option fields as ``DittoCloner`` kwargs."""
        options: Dict[str, Any] = {}
        for name in ("seed", "fine_tune_tiers", "max_tune_iterations",
                     "budget", "generator_config", "validate",
                     "remediation"):
            value = getattr(self, name)
            if value is not None:
                options[name] = value
        return options

    def digest(self) -> str:
        """Stable identity of this request (the fleet's job/cache key).

        Covers every field that can change clone output; normalises the
        config the same way the experiment cache does (a live tracer is
        an observation channel, not an input) and flattens a
        :class:`FidelityGate` into its defining configuration so two
        equal gates hash equally.
        """
        return stable_digest({
            "deployment": self.deployment,
            "load": self.load,
            "config": replace(self.effective_config(), tracer=None),
            "validation_load": self.validation_load,
            "seed": self.seed,
            "fine_tune_tiers": self.fine_tune_tiers,
            "max_tune_iterations": self.max_tune_iterations,
            "budget": self.budget,
            "generator_config": self.generator_config,
            "validate": self._digestable_validate(),
            "remediation": self.remediation,
        })

    def _digestable_validate(self) -> Any:
        if isinstance(self.validate, FidelityGate):
            gate = self.validate
            return ("gate", sorted(gate.tolerances.items()), gate.metrics,
                    gate.latency_quantiles, gate.check_latency,
                    gate.check_error_rate)
        return ("flag", self.validate)

    def describe(self) -> str:
        """One-line human summary (CLI listings, logs)."""
        tiers = len(self.deployment.services)
        return (f"{self.deployment.entry_service} "
                f"({tiers} tier{'s' if tiers != 1 else ''}, "
                f"platform {self.config.platform.name}, "
                f"seed {self.seed if self.seed is not None else 'default'}, "
                f"validate={'on' if self.validate else 'off'})")
