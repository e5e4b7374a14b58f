"""Actual-vs-synthetic error reporting (the §6.2.1 error summary)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.util.errors import ConfigurationError
from repro.util.stats import relative_error

#: the metric columns of Fig. 5/7, in paper order
PAPER_METRICS = ("ipc", "branch", "l1i", "l1d", "l2", "llc")


@dataclass(frozen=True)
class MetricComparison:
    """One metric's actual vs synthetic values."""

    name: str
    actual: float
    synthetic: float

    @property
    def error(self) -> float:
        """Relative error of the synthetic against the actual."""
        return relative_error(self.actual, self.synthetic)


@dataclass
class ErrorReport:
    """A collection of metric comparisons with summary helpers."""

    comparisons: List[MetricComparison] = field(default_factory=list)

    def add(self, name: str, actual: float, synthetic: float) -> None:
        """Record one comparison."""
        self.comparisons.append(MetricComparison(name, actual, synthetic))

    def error_of(self, name: str) -> float:
        """Relative error of a named metric (first match)."""
        for comparison in self.comparisons:
            if comparison.name == name:
                return comparison.error
        raise ConfigurationError(f"no comparison named {name!r}")

    def mean_error(self, names: Optional[List[str]] = None) -> float:
        """Average relative error over (a subset of) the comparisons.

        Comparisons whose actual is zero with a nonzero synthetic are
        infinite and excluded (the paper reports finite averages).
        """
        chosen = [
            c for c in self.comparisons
            if (names is None or c.name in names) and c.error != float("inf")
        ]
        if not chosen:
            raise ConfigurationError("no finite comparisons to average")
        return sum(c.error for c in chosen) / len(chosen)

    def max_error(self) -> float:
        """Largest finite relative error."""
        finite = [c.error for c in self.comparisons
                  if c.error != float("inf")]
        if not finite:
            raise ConfigurationError("no finite comparisons")
        return max(finite)

    def table(self) -> str:
        """A printable actual/synthetic/error table."""
        lines = [f"{'metric':<16}{'actual':>14}{'synthetic':>14}{'error':>9}"]
        for c in self.comparisons:
            err = "inf" if c.error == float("inf") else f"{c.error:8.1%}"
            lines.append(
                f"{c.name:<16}{c.actual:>14.5g}{c.synthetic:>14.5g}{err:>9}"
            )
        return "\n".join(lines)


def compare_metrics(
    actual,
    synthetic,
    names=PAPER_METRICS,
) -> ErrorReport:
    """Compare two ServiceMetrics over the paper's metric columns."""
    report = ErrorReport()
    for name in names:
        report.add(name, actual.metric(name), synthetic.metric(name))
    return report
