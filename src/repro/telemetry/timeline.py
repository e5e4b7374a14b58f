"""Simulated-time timelines.

Where :mod:`repro.telemetry.spans` measures the reproduction's own
wall-clock, this module records what happened *inside the simulation*:
per-service request execution and device activity, stamped with the
discrete-event clock. The simulation engine exposes the hook
(:class:`~repro.sim.engine.Environment` accepts a ``timeline``); the
service runtime and kernel devices emit events through it only when a
run is being observed, so unobserved simulations pay a single ``is not
None`` check per site.

One :class:`SimTimeline` can record several simulation runs (profiling,
fine-tune measurements, validation): each run gets its own
:class:`TimelineRun` handle whose events carry the run's id as their
clock, so the Chrome exporter renders every run as a row of its own —
independent runs all start at sim time zero.

Recording is bounded: past ``max_events`` the timeline drops new events
(counting them in :attr:`SimTimeline.dropped`) instead of growing
without limit — telemetry must never be the memory hog.
"""

from __future__ import annotations

from typing import Any, List

from repro.telemetry.chrometrace import TraceEvent
from repro.util.errors import ConfigurationError

__all__ = ["SimTimeline", "TimelineRun"]

#: default cap on recorded simulated-time events per timeline
DEFAULT_MAX_SIM_EVENTS = 100_000


class TimelineRun:
    """Event sink for one simulation run (what ``env.timeline`` holds)."""

    __slots__ = ("timeline", "run_id", "row")

    def __init__(self, timeline: "SimTimeline", run_id: int,
                 label: str) -> None:
        self.timeline = timeline
        self.run_id = run_id
        self.row = f"simulated time: {label}"

    def complete(self, track: str, name: str, ts: float, dur: float,
                 **args: Any) -> None:
        """Record a finished interval (emit at completion, ts = start).

        ``ts`` and ``dur`` are simulated seconds. Intervals rather than
        begin/end pairs keep concurrent intervals on one track
        (overlapping requests on a service) well-formed.
        """
        self.timeline._record(TraceEvent(name, "sim", "X", ts * 1e6,
                                         dur * 1e6, self.row, track,
                                         self.run_id, args))


class SimTimeline:
    """Bounded collection of simulated-time events across runs."""

    def __init__(self, max_events: int = DEFAULT_MAX_SIM_EVENTS) -> None:
        if max_events < 1:
            raise ConfigurationError("max_events must be >= 1")
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self.runs = 0

    def __len__(self) -> int:
        return len(self.events)

    def begin_run(self, label: str = "") -> TimelineRun:
        """Open a new simulation run; events are namespaced under it."""
        run_id = self.runs
        self.runs += 1
        return TimelineRun(self, run_id, label or f"run {run_id}")

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)
