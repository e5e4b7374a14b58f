"""The typed clone-request spec shared by every cloning entry point.

A :class:`CloneRequest` is the *what* of a clone — the deployment to
clone, the profiling load, platform and fault/resilience options (all on
``config``), and the reproducibility knobs (seed, tuning budget,
generator, validation gate) — captured in one frozen, keyword-only,
picklable object. It is the only place an option that shapes a clone
lives, and the same request drives all three entry points:

- one-shot: ``DittoCloner().clone(request)``;
- re-generation: ``cloner.clone_from_profile(profile, request)``;
- fleet submission: ``FleetClient(store).submit(request)`` — the fleet
  job store keys jobs, shared profiles and the fleet-wide experiment
  cache by :meth:`CloneRequest.digest`.

Execution *infrastructure* (executor mode, worker counts, checkpoint
directories, telemetry sessions) deliberately stays off the request:
none of it changes clone output (the pipeline is bit-identical across
executors), so none of it belongs in the digest that decides whether
two jobs are the same experiment.

Option fields default to ``None``, meaning "the default" — a request
only pins what it cares about. The defaults live here, in
:meth:`CloneRequest.resolved`; ``None`` stays in the digest, so a
request that spells a default out is a different job from one that
leaves it ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.app.service import Deployment
from repro.core.body_gen import GeneratorConfig
from repro.core.finetune import DEFAULT_MAX_TUNE_ITERATIONS
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import ProfilingBudget
from repro.runtime.experiment import ExperimentConfig
from repro.util.errors import ConfigurationError
from repro.util.spec_hash import stable_digest
from repro.validation.gate import FidelityGate
from repro.validation.remediate import RemediationPolicy

__all__ = ["CloneRequest"]

#: the clone seed of a request that leaves ``seed`` unset
DEFAULT_SEED = 17


@dataclass(frozen=True, kw_only=True)
class CloneRequest:
    """One clone, fully specified (frozen, keyword-only, picklable).

    ``deployment``/``load``/``config`` are the required *what*:
    profile ``deployment`` at ``load`` on ``config.platform`` (with
    ``config``'s fault plan and resilience policy, if any). The
    remaining fields are optional; ``None`` means the default that
    :meth:`resolved` fills in. ``validate=True`` or a configured
    :class:`~repro.validation.gate.FidelityGate` gates the clone;
    ``None`` and ``False`` (normalised to ``None``) leave it ungated.
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
        if self.validate is False:
            # off has one form, so an ungated request has one digest
            object.__setattr__(self, "validate", None)
        if self.remediation is not None \
                and not isinstance(self.remediation, RemediationPolicy):
            raise ConfigurationError(
                f"remediation must be a RemediationPolicy, "
                f"got {self.remediation!r}")

    def __setstate__(self, state: dict) -> None:
        # Requests pickled while fault_plan/resilience were request
        # fields load with them folded into config (where they live
        # now); the digest already hashed the folded config.
        state = dict(state)
        folded = {name: value for name in ("fault_plan", "resilience")
                  if (value := state.pop(name, None)) is not None}
        if folded:
            state["config"] = replace(state["config"], **folded)
        self.__dict__.update(state)

    def resolved(self) -> "CloneRequest":
        """This request with every default filled in — what the cloner
        reads.

        ``validate`` becomes a :class:`FidelityGate` or ``None``, and a
        gated request without ``remediation`` gets the default
        :class:`RemediationPolicy` (pass ``RemediationPolicy(
        max_attempts=0)`` for a strict single shot). Digest the request
        as submitted, not its resolved form: the two differ.
        """
        validate = FidelityGate() if self.validate is True else self.validate
        remediation = self.remediation
        if remediation is None and validate is not None:
            remediation = RemediationPolicy()
        return replace(
            self,
            validation_load=(self.load if self.validation_load is None
                             else self.validation_load),
            seed=DEFAULT_SEED if self.seed is None else self.seed,
            fine_tune_tiers=(True if self.fine_tune_tiers is None
                             else self.fine_tune_tiers),
            max_tune_iterations=(DEFAULT_MAX_TUNE_ITERATIONS
                                 if self.max_tune_iterations is None
                                 else self.max_tune_iterations),
            budget=(ProfilingBudget() if self.budget is None
                    else self.budget),
            generator_config=(GeneratorConfig()
                              if self.generator_config is None
                              else self.generator_config),
            validate=validate, remediation=remediation)

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
            "config": replace(self.config, tracer=None),
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
