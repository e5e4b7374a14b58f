"""Telemetry: instrumentation of the reproduction itself.

Not to be confused with :mod:`repro.tracing` — that package models the
*paper's* distributed RPC tracer, a profiling **input** Ditto learns the
topology from. This package observes the **reproduction pipeline**: how
long each clone stage took, how effective experiment memoization was,
and what the simulator did on its own clock.

Three coordinated pieces, one handle:

- a **metrics registry** (:mod:`repro.telemetry.registry`) —
  counters/gauges/histograms with labels, Prometheus text exposition
  and JSON snapshots that merge across process boundaries;
- **pipeline spans** (:mod:`repro.telemetry.spans`) — nestable
  wall-clock spans (``with span("fine_tune"):``) that no-op when no
  session is active;
- **simulated-time timelines** (:mod:`repro.telemetry.timeline`) —
  per-service/per-request events stamped with the discrete-event clock.

Spans, simulated intervals and the fleet flight log all record one
:class:`~repro.telemetry.chrometrace.TraceEvent` type, and one exporter,
:func:`~repro.telemetry.chrometrace.chrome_trace`, renders any list of
them as a Perfetto-loadable Chrome trace. A
:class:`~repro.telemetry.session.Telemetry` session bundles the three
pieces; it saves a ``ditto-telemetry-run/2`` document (metrics plus one
event list) that ``python -m repro.telemetry.report`` summarizes as a
text table.

>>> from repro.telemetry import Telemetry
>>> telemetry = Telemetry(label="demo")
>>> cloner = DittoCloner(telemetry=telemetry)     # doctest: +SKIP
>>> result = cloner.clone(request)                # doctest: +SKIP
>>> result.report.telemetry.write_chrome_trace("trace.json")  # doctest: +SKIP

Telemetry observes and never steers: it consumes no random streams and
adds no simulation events, so a telemetry-enabled clone is bit-identical
to a disabled one. That is why it is set on the cloner, as
infrastructure, while everything that shapes the clone is set on the
:class:`~repro.core.request.CloneRequest`.
"""

from repro.telemetry.chrometrace import TraceEvent, chrome_trace
from repro.telemetry.context import current_session
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.session import Telemetry, WorkerTelemetry
from repro.telemetry.spans import SpanCollector, span
from repro.telemetry.timeline import SimTimeline, TimelineRun

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimTimeline",
    "SpanCollector",
    "Telemetry",
    "TimelineRun",
    "TraceEvent",
    "WorkerTelemetry",
    "chrome_trace",
    "current_session",
    "span",
]
