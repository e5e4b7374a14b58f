"""The telemetry session: registry + spans + sim timeline in one handle.

A :class:`Telemetry` object is what users enable and what
:class:`~repro.core.cloner.CloneReport` carries. Activating it (as a
context manager, or implicitly by handing it to
:class:`~repro.core.cloner.DittoCloner`) installs it as the ambient
session that :func:`repro.telemetry.spans.span`, the experiment
runtime's sim-timeline hooks and
:class:`~repro.runtime.expcache.ExperimentCache` all discover.

Process-pool pipeline workers cannot see the parent's session; they
build their own (:meth:`Telemetry.for_worker`), do the tier's work under
it, and ship back a picklable :class:`WorkerTelemetry` payload that the
parent folds in with :meth:`Telemetry.absorb` — counters add, spans
concatenate (keeping the worker's pid in their row, so the merged Chrome
trace shows each worker as its own process row).

Spans and simulated-time events are the same
:class:`~repro.telemetry.chrometrace.TraceEvent` record, so the Chrome
export and the saved-run document (``ditto-telemetry-run/2``) each hold
them as one list.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry import context as _context
from repro.telemetry.chrometrace import TraceEvent, chrome_trace
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanCollector
from repro.telemetry.timeline import SimTimeline

__all__ = ["Telemetry", "WorkerTelemetry", "current_session"]

#: saved-run document format tag
RUN_FORMAT = "ditto-telemetry-run/2"

current_session = _context.current_session


@dataclass
class WorkerTelemetry:
    """What a pipeline worker sends back to the parent (picklable)."""

    metrics: Dict[str, dict] = field(default_factory=dict)
    spans: List[TraceEvent] = field(default_factory=list)


class Telemetry:
    """One observability session over clone/experiment runs."""

    def __init__(self, *, label: str = "",
                 sim_timeline: bool = True) -> None:
        self.label = label
        self.registry = MetricsRegistry()
        self.spans = SpanCollector()
        self.timeline: Optional[SimTimeline] = (
            SimTimeline() if sim_timeline else None)
        #: pid of the process that owns the session (a pipeline task
        #: running under another pid records into a worker session)
        self.pid = os.getpid()
        self._token = None
        self._depth = 0

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Telemetry":
        self.activate()
        return self

    def __exit__(self, *_exc) -> bool:
        self.deactivate()
        return False

    def activate(self) -> "Telemetry":
        """Install as the ambient session (re-entrant activations nest)."""
        self._depth += 1
        if self._token is None:
            self._token = _context.activate(self)
        return self

    def deactivate(self) -> None:
        """Uninstall once the outermost activation exits."""
        if self._depth > 0:
            self._depth -= 1
        if self._depth == 0 and self._token is not None:
            _context.deactivate(self._token)
            self._token = None

    # ------------------------------------------------------------------ #
    # worker round-trip
    # ------------------------------------------------------------------ #
    @classmethod
    def for_worker(cls) -> "Telemetry":
        """A lightweight session for one pipeline worker task.

        No sim timeline: fine-tune measurement runs inside workers are
        numerous and their per-request event streams would dwarf the
        payload shipped back to the parent.
        """
        return cls(sim_timeline=False)

    def payload(self) -> WorkerTelemetry:
        """Snapshot for shipping across a process boundary."""
        return WorkerTelemetry(metrics=self.registry.snapshot(),
                               spans=list(self.spans.records))

    def absorb(self, payload: Optional[WorkerTelemetry]) -> "Telemetry":
        """Fold a worker payload in (None is tolerated and ignored)."""
        if payload is not None:
            self.registry.merge(payload.metrics)
            self.spans.extend(payload.spans)
        return self

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def events(self) -> List[TraceEvent]:
        """The pipeline spans, then the simulated-time events."""
        events = list(self.spans.records)
        if self.timeline is not None:
            events.extend(self.timeline.events)
        return events

    def chrome_trace(self) -> dict:
        """Both timelines as one Chrome trace-event document."""
        return chrome_trace(self.events(),
                            metadata={"label": self.label} if self.label
                            else None)

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path`` (Perfetto-loadable)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        return path

    def snapshot(self) -> dict:
        """The saved-run document (input of the report CLI)."""
        return {
            "format": RUN_FORMAT,
            "label": self.label,
            "metrics": self.registry.snapshot(),
            "events": [event.to_dict() for event in self.events()],
            "sim_dropped": (self.timeline.dropped
                            if self.timeline is not None else 0),
        }

    def save(self, path: str) -> str:
        """Write the saved-run document as JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        return path

    def report_table(self) -> str:
        """The report CLI's text summary for this session."""
        from repro.telemetry.report import render_report
        return render_report(self.snapshot())
