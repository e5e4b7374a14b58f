"""Fine tuning (§4.5).

The profilers introduce quantisation/sampling error, and body profiling
ignores user/kernel interactions, so the freshly-generated clone's
counters deviate from the target. The fine tuner iteratively:

1. runs the synthetic service stand-alone on the profiling platform at
   the profiling load;
2. compares its counters with the target's;
3. nudges the knob paired with each metric group (relationships are
   mostly linear, so a damped multiplicative update converges quickly);
4. regenerates the body.

It stops when the mean error over the tracked metrics drops under the
tolerance or after ``max_iterations`` (the paper: "within ten iterations
to reach over 95% accuracy").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.app.service import ServiceSpec
from repro.core.body_gen import GeneratorConfig, TuningKnobs
from repro.core.features import ServiceFeatures
from repro.core.synthesis import measure_standalone, synthesize_service
from repro.runtime.expcache import ExperimentCache
from repro.runtime.experiment import ExperimentConfig
from repro.runtime.metrics import ServiceMetrics
from repro.telemetry.context import current_session
from repro.telemetry.spans import span
from repro.util.errors import ConfigurationError, SimBudgetExceededError
from repro.util.stats import relative_error

#: metric -> knob pairing; groups are tuned jointly via their shared run
KNOB_FOR_METRIC = {
    "l1i": "imem_scale",
    "l1d": "dmem_scale",
    "llc": "big_wset_scale",
    "branch": "transition_scale",
}
#: update damping (linear-ish knob/metric relationships, §4.5)
DAMPING = 0.6
#: knob clamp range
KNOB_RANGE = (0.1, 10.0)
#: default tuning budget, shared by :func:`fine_tune` and
#: :class:`~repro.core.request.CloneRequest`. The paper reports the loop
#: "converges within ten iterations to reach over 95% accuracy" (§4.5),
#: so ten is the budget; convergence under ``tolerance`` exits earlier.
DEFAULT_MAX_TUNE_ITERATIONS = 10


@dataclass
class FineTuneResult:
    """Outcome of a tuning session."""

    knobs: TuningKnobs
    iterations: int
    final_errors: Dict[str, float]
    error_history: List[float] = field(default_factory=list)
    converged: bool = False
    #: the tier as generated with ``knobs`` (downstream calls kept): the
    #: very service the loop measured them on, so the clone reuses it
    #: instead of generating it again
    spec: Optional[ServiceSpec] = field(default=None, repr=False,
                                        compare=False)

    @property
    def mean_error(self) -> float:
        """Mean relative error at the end of tuning."""
        if not self.final_errors:
            return math.inf
        return sum(self.final_errors.values()) / len(self.final_errors)


def _record_tuning(service: str, iterations: int, converged: bool) -> None:
    """Account a finished tuning session in the ambient registry."""
    session = current_session()
    if session is None:
        return
    session.registry.counter(
        "ditto_tune_iterations_total",
        "fine-tune iterations executed", ("service",),
    ).inc(iterations, service=service)
    session.registry.counter(
        "ditto_tune_sessions_total",
        "fine-tune sessions finished", ("service", "converged"),
    ).inc(1, service=service, converged=str(converged).lower())


def _record_budget_trip(service: str, trip: SimBudgetExceededError) -> None:
    """Account a watchdog trip inside a tuning loop."""
    session = current_session()
    if session is None:
        return
    session.registry.counter(
        "ditto_tune_budget_trips_total",
        "simulation watchdog trips during fine-tuning",
        ("service", "budget"),
    ).inc(1, service=service, budget=trip.budget or "unknown")


def _errors(
    target: ServiceMetrics,
    measured: ServiceMetrics,
    metrics: Tuple[str, ...],
) -> Dict[str, float]:
    errors = {}
    for name in metrics:
        errors[name] = relative_error(target.metric(name),
                                      measured.metric(name))
    return errors


def fine_tune(
    features: ServiceFeatures,
    platform_config: ExperimentConfig,
    base_config: Optional[GeneratorConfig] = None,
    max_iterations: int = DEFAULT_MAX_TUNE_ITERATIONS,
    tolerance: float = 0.05,
    metrics: Tuple[str, ...] = ("ipc", "branch", "l1i", "l1d", "llc"),
    cache: Optional[ExperimentCache] = None,
) -> FineTuneResult:
    """Calibrate generator knobs against the profiled target counters.

    ``max_iterations`` defaults to :data:`DEFAULT_MAX_TUNE_ITERATIONS`
    (the paper's "within ten iterations" guidance). Pass an
    :class:`~repro.runtime.expcache.ExperimentCache` as ``cache`` to
    memoize the per-iteration measurement runs: iterations whose knob
    vector repeats an earlier candidate (convergence plateaus, damped
    oscillation) are then served without re-simulating.
    """
    if features.target_counters is None:
        raise ConfigurationError(
            f"{features.service}: no target counters to tune against")
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    target = features.target_counters
    config = base_config if base_config is not None else GeneratorConfig()
    knobs = config.knobs
    history: List[float] = []
    # the first candidate is the best so far even when no error is
    # finite: best_knobs starts as its knobs
    best_knobs = knobs
    best_spec: Optional[ServiceSpec] = None
    best_error = math.inf
    final_errors: Dict[str, float] = {}
    iterations_used = 0
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        config = replace(config, knobs=knobs)
        try:
            with span("tune_iteration", category="finetune",
                      service=features.service, iteration=iteration) as tick:
                with span("generation", category="tier",
                          service=features.service):
                    spec = synthesize_service(features, config)
                measured = measure_standalone(features, spec,
                                              platform_config, cache=cache)
                errors = _errors(target, measured, metrics)
                finite = [e for e in errors.values() if e != math.inf]
                mean_error = (sum(finite) / len(finite) if finite
                              else math.inf)
                tick.set(mean_error=(mean_error if mean_error != math.inf
                                     else None))
        except SimBudgetExceededError as trip:
            # A watchdog tripped mid-calibration (a knob candidate drove
            # the simulation into a budget). With at least one measured
            # candidate in hand, keep the best of them — a degraded but
            # usable result the cloner's gate can still judge; on the
            # very first iteration there is nothing to salvage, so the
            # trip propagates for remediation to handle.
            _record_budget_trip(features.service, trip)
            if iteration == 0:
                raise
            _record_tuning(features.service, iterations_used,
                           converged=False)
            return FineTuneResult(
                knobs=best_knobs, iterations=iterations_used,
                final_errors=final_errors, error_history=history,
                converged=False, spec=best_spec,
            )
        history.append(mean_error)
        final_errors = errors
        if best_spec is None or mean_error < best_error:
            best_error = mean_error
            best_knobs = knobs
            best_spec = spec
        if mean_error <= tolerance:
            _record_tuning(features.service, iterations_used,
                           converged=True)
            return FineTuneResult(
                knobs=knobs, iterations=iterations_used,
                final_errors=errors, error_history=history, converged=True,
                spec=spec,
            )
        # Damped multiplicative updates toward each paired target.
        updates = {}
        for metric, knob in KNOB_FOR_METRIC.items():
            if metric not in errors:
                continue
            measured_value = measured.metric(metric)
            target_value = target.metric(metric)
            if measured_value <= 0 or target_value <= 0:
                continue
            ratio = (target_value / measured_value) ** DAMPING
            current = getattr(knobs, knob)
            updates[knob] = float(min(KNOB_RANGE[1],
                                      max(KNOB_RANGE[0], current * ratio)))
        # IPC residual steers the dependency/ILP group: a too-fast clone
        # gets its dependency distances compressed (and vice versa),
        # which is faithful — instruction counts stay profiled.
        if "ipc" in errors and measured.ipc > 0 and target.ipc > 0:
            # The ILP lever is shallow (distances only matter once they
            # compress below the issue window), so it gets an aggressive
            # update exponent.
            ratio = (measured.ipc / target.ipc) ** (3 * DAMPING)
            updates["ilp_scale"] = float(min(
                KNOB_RANGE[1],
                max(KNOB_RANGE[0], knobs.ilp_scale * ratio)))
        knobs = knobs.with_(**updates)
    _record_tuning(features.service, iterations_used, converged=False)
    return FineTuneResult(
        knobs=best_knobs, iterations=iterations_used,
        final_errors=final_errors, error_history=history, converged=False,
        spec=best_spec,
    )
