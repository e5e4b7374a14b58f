"""Metrics registry: counters, gauges and histograms with labels.

A deliberately small Prometheus-flavoured metrics core for instrumenting
the reproduction *itself* (pipeline throughput, cache hit rates, tuning
iterations) — distinct from :mod:`repro.runtime.metrics`, which models
the simulated hardware counters the paper reports.

Metrics are registered in a :class:`MetricsRegistry`. Each metric owns a
family of *series* keyed by label values; a metric with no labels has a
single unlabelled series. Registries serialise to a JSON-safe snapshot
(for crossing process boundaries: pipeline workers snapshot their
registry and the parent :meth:`MetricsRegistry.merge`\\ s it back in) and
render as Prometheus text exposition for scraping/diffing.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: hard ceiling on distinct label-value combinations per metric — a
#: mis-labelled metric (e.g. a request id used as a label) fails loudly
#: instead of silently eating memory.
MAX_SERIES_PER_METRIC = 4096

#: default histogram bucket upper bounds (seconds-flavoured, like the
#: Prometheus client default, extended downward for sub-ms spans)
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelKey = Tuple[str, ...]


def _label_key(
    metric: "_Metric", labels: Mapping[str, object]
) -> LabelKey:
    if set(labels) != set(metric.label_names):
        raise ConfigurationError(
            f"metric {metric.name!r} takes labels {metric.label_names}, "
            f"got {tuple(sorted(labels))}")
    return tuple(str(labels[name]) for name in metric.label_names)


class _Metric:
    """Shared machinery for one metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.label_names: LabelKey = tuple(label_names)
        self._lock = threading.Lock()

    def _check_cardinality(self, series: Mapping) -> None:
        if len(series) >= MAX_SERIES_PER_METRIC:
            raise ConfigurationError(
                f"metric {self.name!r} exceeded {MAX_SERIES_PER_METRIC} "
                f"label combinations — a high-cardinality value (request "
                f"id, timestamp, ...) is probably being used as a label")

    # -- subclass interface ------------------------------------------- #
    def _series_items(self) -> List[Tuple[LabelKey, object]]:
        raise NotImplementedError

    def _snapshot_series(self) -> List[dict]:
        raise NotImplementedError

    def _merge_series(self, series: List[dict]) -> None:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = _label_key(self, labels)
        with self._lock:
            if key not in self._values:
                self._check_cardinality(self._values)
                self._values[key] = 0.0
            self._values[key] += amount

    def value(self, **labels: object) -> float:
        """Current count for one series (0 if never incremented)."""
        return self._values.get(_label_key(self, labels), 0.0)

    def total(self) -> float:
        """Sum over every series."""
        return sum(self._values.values())

    def _series_items(self):
        return sorted(self._values.items())

    def _snapshot_series(self) -> List[dict]:
        return [{"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in self._series_items()]

    def _merge_series(self, series: List[dict]) -> None:
        for entry in series:
            if entry["value"]:
                self.inc(entry["value"], **entry["labels"])


class Gauge(_Metric):
    """A value that can go up and down (last write wins on merge)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        key = _label_key(self, labels)
        with self._lock:
            if key not in self._values:
                self._check_cardinality(self._values)
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        key = _label_key(self, labels)
        with self._lock:
            if key not in self._values:
                self._check_cardinality(self._values)
                self._values[key] = 0.0
            self._values[key] += amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the gauge down by ``amount``."""
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        """Current value for one series (0 if never set)."""
        return self._values.get(_label_key(self, labels), 0.0)

    def _series_items(self):
        return sorted(self._values.items())

    def _snapshot_series(self) -> List[dict]:
        return [{"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in self._series_items()]

    def _merge_series(self, series: List[dict]) -> None:
        for entry in series:
            self.set(entry["value"], **entry["labels"])


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets   # per-bucket, non-cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Distribution of observations over fixed buckets.

    ``buckets`` are upper bounds (``le``); an implicit +Inf bucket
    catches everything above the last bound.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.buckets: Tuple[float, ...] = bounds
        self._states: Dict[LabelKey, _HistogramState] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        key = _label_key(self, labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                self._check_cardinality(self._states)
                state = self._states[key] = _HistogramState(
                    len(self.buckets) + 1)
            index = len(self.buckets)   # +Inf
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            state.counts[index] += 1
            state.sum += value
            state.count += 1

    def count(self, **labels: object) -> int:
        """Total observations for one series."""
        state = self._states.get(_label_key(self, labels))
        return state.count if state else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations for one series."""
        state = self._states.get(_label_key(self, labels))
        return state.sum if state else 0.0

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf last."""
        state = self._states.get(_label_key(self, labels))
        if state is None:
            return [0] * (len(self.buckets) + 1)
        return list(state.counts)

    def _series_items(self):
        return sorted(self._states.items())

    def _snapshot_series(self) -> List[dict]:
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "buckets": list(self.buckets),
                "counts": list(state.counts),
                "sum": state.sum,
                "count": state.count,
            }
            for key, state in self._series_items()
        ]

    def _merge_series(self, series: List[dict]) -> None:
        for entry in series:
            if tuple(entry["buckets"]) != self.buckets:
                raise ConfigurationError(
                    f"histogram {self.name!r}: cannot merge differing "
                    f"bucket layouts")
            key = _label_key(self, entry["labels"])
            with self._lock:
                state = self._states.get(key)
                if state is None:
                    self._check_cardinality(self._states)
                    state = self._states[key] = _HistogramState(
                        len(self.buckets) + 1)
                for i, c in enumerate(entry["counts"]):
                    state.counts[i] += c
                state.sum += entry["sum"]
                state.count += entry["count"]


_METRIC_TYPES = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> List[_Metric]:
        """All registered metrics, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under ``name``, if any."""
        return self._metrics.get(name)

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) \
                        or existing.label_names != tuple(label_names):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}")
                return existing
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, label_names,
                                   buckets=buckets)

    # ------------------------------------------------------------------ #
    # export / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-safe dump of every metric (the cross-process format)."""
        out = {}
        for metric in self.metrics():
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": metric._snapshot_series(),
            }
        return out

    def merge(self, snapshot: Mapping[str, dict]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges
        take the snapshot's value. Unknown metrics are created."""
        for name in sorted(snapshot):
            entry = snapshot[name]
            cls = _METRIC_TYPES.get(entry["type"])
            if cls is None:
                raise ConfigurationError(
                    f"cannot merge metric {name!r} of unknown type "
                    f"{entry['type']!r}")
            kwargs = {}
            if cls is Histogram and entry["series"]:
                kwargs["buckets"] = entry["series"][0]["buckets"]
            metric = self._get_or_create(
                cls, name, entry.get("help", ""),
                entry.get("label_names", ()), **kwargs)
            metric._merge_series(entry["series"])
        return self

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, state in metric._series_items():
                labels = dict(zip(metric.label_names, key))
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(
                            list(metric.buckets) + [float("inf")],
                            state.counts):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_fmt_labels({**labels, 'le': le})} "
                            f"{cumulative}")
                    lines.append(
                        f"{metric.name}_sum{_fmt_labels(labels)} "
                        f"{_fmt_value(state.sum)}")
                    lines.append(
                        f"{metric.name}_count{_fmt_labels(labels)} "
                        f"{state.count}")
                else:
                    lines.append(
                        f"{metric.name}{_fmt_labels(labels)} "
                        f"{_fmt_value(state)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape(str(value))}"'
        for name, value in labels.items())
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace(
        "\n", r"\n")


def _fmt_value(value: float) -> str:
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)

