"""Clone-fidelity acceptance gates (the paper's §6 claim, enforced).

Ditto's central claim is that a clone *stays* representative of the
original — same IPC, same miss rates, same tail latency — across
platforms and loads. A :class:`FidelityGate` turns that claim into a
checked contract: replay original and clone under matched seeds, take
per-metric relative errors, compare each against an explicit tolerance
and produce a typed :class:`FidelityReport` of pass/fail per metric.

Default tolerances come from the paper's reported clone errors (§6.2.1:
average error under 5%, individual metrics up to ~10%, cross-platform
tails somewhat wider); each carries an absolute slack floor so metrics
that are legitimately near zero (miss rates on cache-resident tiers,
error rates on clean runs) do not fail on meaningless relative error.

Two comparison modes:

- :meth:`FidelityGate.validate` — run both deployments under the same
  :class:`~repro.runtime.experiment.ExperimentConfig` (matched seeds)
  and compare the full metric set, tail latency and error rate
  included;
- :meth:`FidelityGate.compare_counters` — compare a measured
  :class:`~repro.runtime.metrics.ServiceMetrics` against a profiled
  target, which is all a saved bundle has. :func:`gate_bundle_tiers`
  gates a bundle's tiers this way for ``python -m repro.validation``
  and a migration's destination stage alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.body_gen import GeneratorConfig
from repro.core.features import ServiceFeatures
from repro.core.synthesis import measure_standalone
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.runtime.metrics import RunResult, ServiceMetrics
from repro.telemetry.context import current_session
from repro.telemetry.spans import span
from repro.util.errors import ConfigurationError

__all__ = [
    "DEFAULT_TOLERANCES",
    "FidelityGate",
    "FidelityReport",
    "MetricCheck",
    "MetricTolerance",
    "gate_bundle_tiers",
    "parse_tolerances",
]


@dataclass(frozen=True)
class MetricTolerance:
    """Acceptance bound for one metric.

    A check passes when the absolute difference is within ``absolute``
    *or* the relative error is within ``relative`` — the absolute floor
    keeps near-zero metrics (a 0.2% miss rate, a 0-vs-0.1% error rate)
    from failing on huge-but-meaningless relative error.
    """

    metric: str
    relative: float
    absolute: float = 0.0

    def __post_init__(self) -> None:
        # ``not >= 0`` also rejects NaN, which would disable the bound
        if not (self.relative >= 0 and self.absolute >= 0):
            raise ConfigurationError(
                f"tolerances must be non-negative numbers, got {self!r}")


def parse_tolerances(entries: Iterable[str]) -> Optional[Dict[str, float]]:
    """Command-line ``METRIC=REL`` entries as relative-bound overrides.

    Returns None when there are none, so "no overrides" has one form.
    """
    tolerances: Dict[str, float] = {}
    for entry in entries:
        name, _, value = entry.partition("=")
        try:
            if not name:
                raise ValueError(entry)
            tolerances[name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"--tolerance takes METRIC=REL with a numeric REL, "
                f"got {entry!r}") from None
    return tolerances or None


#: default per-metric tolerances (paper §6.2.1 error envelope, with
#: cross-platform headroom on the cache tail and latency quantiles)
DEFAULT_TOLERANCES: Dict[str, MetricTolerance] = {
    tolerance.metric: tolerance
    for tolerance in (
        MetricTolerance("ipc", relative=0.15),
        MetricTolerance("l1i", relative=0.25, absolute=0.02),
        MetricTolerance("l1d", relative=0.25, absolute=0.02),
        MetricTolerance("l2", relative=0.35, absolute=0.05),
        MetricTolerance("llc", relative=0.35, absolute=0.05),
        MetricTolerance("branch_mpki", relative=0.35, absolute=1.0),
        MetricTolerance("branch", relative=0.35, absolute=0.01),
        MetricTolerance("p50_latency", relative=0.35, absolute=50e-6),
        MetricTolerance("p99_latency", relative=0.50, absolute=200e-6),
        MetricTolerance("error_rate", relative=0.0, absolute=0.02),
    )
}

#: per-service hardware metrics checked in run-vs-run mode
RUN_METRICS: Tuple[str, ...] = ("ipc", "l1i", "l1d", "l2", "llc",
                                "branch_mpki")
#: per-service metrics checked in counters mode (bundle validation);
#: branch misprediction *rate* replaces MPKI because profiled target
#: counters reconstruct branch density, not the real branch count
COUNTER_METRICS: Tuple[str, ...] = ("ipc", "l1i", "l1d", "l2", "llc",
                                    "branch")


def _metric_value(metrics: ServiceMetrics, name: str) -> float:
    if name == "branch_mpki":
        return metrics.mpki(metrics.timing.branch_mispredictions)
    return metrics.metric(name)


@dataclass
class MetricCheck:
    """One metric's comparison: values, error, bound, verdict."""

    metric: str
    #: tier the metric belongs to; ``""`` for deployment-level checks
    service: str
    original: float
    clone: float
    #: relative error (inf when the original is 0 and the clone is not)
    error: float
    tolerance: MetricTolerance
    passed: bool

    def to_dict(self) -> dict:
        """JSON-safe form (the CI artifact format)."""
        return {
            "metric": self.metric, "service": self.service,
            "original": self.original, "clone": self.clone,
            "error": (self.error if math.isfinite(self.error)
                      else "inf"),
            "relative_tolerance": self.tolerance.relative,
            "absolute_tolerance": self.tolerance.absolute,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricCheck":
        """Inverse of :meth:`to_dict` (fleet artifacts round-trip)."""
        error = doc["error"]
        return cls(
            metric=doc["metric"], service=doc.get("service", ""),
            original=float(doc["original"]), clone=float(doc["clone"]),
            error=(math.inf if error == "inf" else float(error)),
            tolerance=MetricTolerance(
                doc["metric"],
                relative=float(doc.get("relative_tolerance", 0.0)),
                absolute=float(doc.get("absolute_tolerance", 0.0))),
            passed=bool(doc["passed"]),
        )


@dataclass
class FidelityReport:
    """Typed pass/fail verdict of one gate evaluation."""

    checks: List[MetricCheck] = field(default_factory=list)
    label: str = ""
    platform: str = ""
    seed: int = 0
    #: comparison mode: ``"runs"`` (matched replay) or ``"counters"``
    mode: str = "runs"

    @property
    def passed(self) -> bool:
        """True when every metric check passed."""
        return all(check.passed for check in self.checks)

    def failures(self) -> List[MetricCheck]:
        """The checks that failed, worst relative error first."""
        failed = [check for check in self.checks if not check.passed]
        return sorted(failed, key=lambda c: -c.error)

    @property
    def mean_error(self) -> float:
        """Mean finite relative error across all checks."""
        finite = [c.error for c in self.checks if math.isfinite(c.error)]
        if not finite:
            return math.inf
        return sum(finite) / len(finite)

    def to_dict(self) -> dict:
        """JSON-safe form, stable key order (the CI artifact format)."""
        return {
            "format": "ditto-fidelity-report/1",
            "label": self.label,
            "platform": self.platform,
            "seed": self.seed,
            "mode": self.mode,
            "passed": self.passed,
            "mean_error": (self.mean_error
                           if math.isfinite(self.mean_error) else "inf"),
            "checks": [check.to_dict() for check in self.checks],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FidelityReport":
        """Rebuild a report from :meth:`to_dict` output.

        The serialization hook behind the fleet's fidelity artifacts:
        ``python -m repro.fleet show``/``drift`` and the telemetry
        report CLI reload persisted reports through here, so they can
        reuse :meth:`summary`/:meth:`failures` instead of re-implementing
        the table over raw JSON.
        """
        return cls(
            checks=[MetricCheck.from_dict(entry)
                    for entry in doc.get("checks", [])],
            label=doc.get("label", ""),
            platform=doc.get("platform", ""),
            seed=int(doc.get("seed", 0)),
            mode=doc.get("mode", "runs"),
        )

    def summary(self) -> str:
        """Human-readable per-metric table."""
        lines = [
            f"fidelity gate [{self.label or 'clone'}] "
            f"platform={self.platform or '?'} mode={self.mode} "
            f"→ {'PASS' if self.passed else 'FAIL'}",
            f"{'metric':<14} {'service':<16} {'original':>12} "
            f"{'clone':>12} {'error':>8}  verdict",
        ]
        for check in self.checks:
            error = (f"{check.error:7.1%}" if math.isfinite(check.error)
                     else "    inf")
            lines.append(
                f"{check.metric:<14} {check.service or '(run)':<16} "
                f"{check.original:>12.5g} {check.clone:>12.5g} "
                f"{error:>8}  {'ok' if check.passed else 'FAIL'}")
        return "\n".join(lines)


def _relative_error(original: float, clone: float) -> float:
    if original == 0.0:
        return 0.0 if clone == 0.0 else math.inf
    return abs(clone - original) / abs(original)


class FidelityGate:
    """Replays original vs clone and enforces per-metric tolerances.

    ``tolerances`` overrides/extends :data:`DEFAULT_TOLERANCES` (pass a
    mapping of metric name to :class:`MetricTolerance`, or to a float
    which is taken as the relative bound). ``metrics`` restricts which
    per-service hardware metrics are checked; ``latency_quantiles``
    picks the latency percentiles compared at deployment level.
    """

    def __init__(
        self,
        tolerances: Optional[Dict[str, object]] = None,
        *,
        metrics: Tuple[str, ...] = RUN_METRICS,
        latency_quantiles: Tuple[float, ...] = (0.5, 0.99),
        check_latency: bool = True,
        check_error_rate: bool = True,
    ) -> None:
        self.tolerances: Dict[str, MetricTolerance] = \
            dict(DEFAULT_TOLERANCES)
        for name, value in (tolerances or {}).items():
            if isinstance(value, MetricTolerance):
                self.tolerances[name] = value
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                base = self.tolerances.get(
                    name, MetricTolerance(name, relative=0.0))
                self.tolerances[name] = replace(
                    base, metric=name, relative=float(value))
            else:
                raise ConfigurationError(
                    f"tolerance for {name!r} must be a MetricTolerance "
                    f"or a number, got {value!r}")
        unknown = [m for m in metrics if m not in self.tolerances]
        if unknown:
            raise ConfigurationError(
                f"no tolerance defined for metrics {unknown}")
        self.metrics = tuple(metrics)
        for quantile in latency_quantiles:
            if not 0.0 < quantile < 1.0:
                raise ConfigurationError(
                    f"latency quantiles must be in (0, 1), "
                    f"got {quantile!r}")
        self.latency_quantiles = tuple(latency_quantiles)
        self.check_latency = check_latency
        self.check_error_rate = check_error_rate

    # ------------------------------------------------------------------ #
    # comparison primitives
    # ------------------------------------------------------------------ #
    def _check(self, metric: str, service: str, original: float,
               clone: float) -> MetricCheck:
        tolerance = self.tolerances[metric]
        error = _relative_error(original, clone)
        passed = (abs(clone - original) <= tolerance.absolute
                  or (tolerance.relative > 0.0
                      and error <= tolerance.relative))
        return MetricCheck(metric=metric, service=service,
                           original=original, clone=clone, error=error,
                           tolerance=tolerance, passed=passed)

    def _quantile_metric(self, quantile: float) -> str:
        name = f"p{quantile * 100:g}_latency"
        return name if name in self.tolerances else "p99_latency"

    def compare_runs(self, original: RunResult, clone: RunResult, *,
                     label: str = "", platform: str = "",
                     seed: int = 0) -> FidelityReport:
        """Gate a clone's :class:`RunResult` against the original's."""
        report = FidelityReport(label=label, platform=platform,
                                seed=seed, mode="runs")
        for name in sorted(original.services):
            target = original.service(name)
            measured = clone.service(name)
            for metric in self.metrics:
                report.checks.append(self._check(
                    metric, name,
                    _metric_value(target, metric),
                    _metric_value(measured, metric)))
        if self.check_latency and original.latency.samples \
                and clone.latency.samples:
            for quantile in self.latency_quantiles:
                report.checks.append(self._check(
                    self._quantile_metric(quantile), "",
                    original.latency.percentile(quantile),
                    clone.latency.percentile(quantile)))
        if self.check_error_rate:
            report.checks.append(self._check(
                "error_rate", "", original.error_rate, clone.error_rate))
        self._record(report)
        return report

    def compare_counters(self, service: str, target: ServiceMetrics,
                         measured: ServiceMetrics, *, platform: str = "",
                         seed: int = 0) -> FidelityReport:
        """Gate measured counters against a profiled target's.

        The bundle-validation mode: targets come from the shareable
        bundle's ``target_counters``, so only hardware metrics are
        comparable (no latency distribution travels in a bundle).
        """
        report = FidelityReport(label=service, platform=platform,
                                seed=seed, mode="counters")
        for metric in COUNTER_METRICS:
            report.checks.append(self._check(
                metric, service,
                _metric_value(target, metric),
                _metric_value(measured, metric)))
        self._record(report)
        return report

    # ------------------------------------------------------------------ #
    # end-to-end validation
    # ------------------------------------------------------------------ #
    def validate(self, original, clone, load, config: ExperimentConfig,
                 *, label: str = "",
                 baseline: Optional[Callable[[], Optional[RunResult]]]
                 = None) -> FidelityReport:
        """Replay both deployments under matched seeds and gate them.

        ``original`` and ``clone`` are
        :class:`~repro.app.service.Deployment` objects with the same
        services; both runs use ``config`` exactly as given (same seed —
        the comparison is like-for-like by construction). When the
        original's replay is already under way elsewhere, ``baseline``
        blocks until it finishes and returns it, or None when it
        failed; the gate then replays the original itself.
        """
        if set(original.services) != set(clone.services):
            raise ConfigurationError(
                f"clone tiers {sorted(clone.services)} do not match "
                f"original tiers {sorted(original.services)}")
        with span("fidelity_gate", category="validation",
                  label=label or original.entry_service,
                  tiers=len(original.services)):
            measured = None
            if baseline is not None:
                with span("gate_baseline_wait", category="validation"):
                    measured = baseline()
            if measured is None:
                measured = run_experiment(original, load, config)
            replayed = run_experiment(clone, load, config)
            return self.compare_runs(
                measured, replayed, label=label or original.entry_service,
                platform=config.platform.name, seed=config.seed)

    def _record(self, report: FidelityReport) -> None:
        session = current_session()
        if session is None:
            return
        session.registry.counter(
            "ditto_fidelity_gates_total",
            "fidelity-gate evaluations finished", ("passed",),
        ).inc(1, passed=str(report.passed).lower())
        failed = session.registry.counter(
            "ditto_fidelity_metric_failures_total",
            "individual metric checks that failed a gate", ("metric",))
        for check in report.failures():
            failed.inc(1, metric=check.metric)


def gate_bundle_tiers(
    features: Dict[str, ServiceFeatures],
    generators: Dict[str, GeneratorConfig],
    gate: FidelityGate,
    config: ExperimentConfig,
) -> Dict[str, FidelityReport]:
    """Gate each tier, run stand-alone, against its target counters.

    Each tier is generated with its ``generators`` config and measured
    on ``config`` by :func:`repro.core.synthesis.measure_standalone`.
    A tier without ``target_counters`` gets an empty, passing report.
    Returns one report per tier, in tier-name order.
    """
    platform = config.platform.name
    reports: Dict[str, FidelityReport] = {}
    for name in sorted(features):
        tier = features[name]
        if tier.target_counters is None:
            reports[name] = FidelityReport(label=name, platform=platform,
                                           seed=config.seed,
                                           mode="counters")
            continue
        reports[name] = gate.compare_counters(
            name, tier.target_counters,
            measure_standalone(tier, generators[name], config),
            platform=platform, seed=config.seed)
    return reports
