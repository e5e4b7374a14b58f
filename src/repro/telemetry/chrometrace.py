"""The trace-event record and its Chrome trace-event JSON export.

Every timeline the reproduction records — wall-clock pipeline spans
(:mod:`repro.telemetry.spans`), simulated-time intervals
(:mod:`repro.telemetry.timeline`) and the fleet flight log
(:meth:`repro.fleet.obs.flight.FlightLog.trace_events`) — is a list of
:class:`TraceEvent`\\ s, and :func:`chrome_trace` is the one place that
turns such a list into the Trace Event Format's "JSON object" flavour
(``{"traceEvents": [...]}``, Perfetto / ``chrome://tracing``).

An event's ``row`` becomes a Chrome process and its ``track`` a thread
within it. Wall-clock events share one axis and are rebased to the
earliest of them so traces open near t=0. Simulation runs all start at
sim time zero, so a sim-clock event is never rebased and each run gets
a row of its own even when two runs carry the same label.
Timestamps are microseconds, as the format requires.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Optional

__all__ = ["TraceEvent", "chrome_trace"]


@dataclass
class TraceEvent:
    """One recorded span, simulated interval or flight event (picklable)."""

    name: str
    category: str
    #: Chrome trace phase: "X" an interval, "i" an instant
    ph: str
    #: start in microseconds: since the epoch on the wall clock, since
    #: the run began on a simulation clock
    ts: float
    #: interval length in microseconds ("X" events)
    dur: float
    #: the Chrome process the event renders in, by name
    row: str
    #: the Chrome thread within ``row``, by name
    track: str
    #: None on the wall clock, else the id of the simulation run
    clock: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Interval length in seconds."""
        return self.dur / 1e6

    def to_dict(self) -> dict:
        """JSON-safe form (the saved-run format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(**doc)


def _name(kind: str, pid: int, tid: int, value: str) -> dict:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": value}}


def chrome_trace(events: Iterable[TraceEvent], *,
                 metadata: Optional[Dict[str, Any]] = None) -> dict:
    """The trace-event document for ``events``.

    pids and tids are assigned per (row, track) in first-seen order, and
    each row's and track's name is emitted once, before its first event.
    ``metadata`` lands in the document's ``otherData``.
    """
    events = list(events)
    wall = [event.ts for event in events if event.clock is None]
    base = min(wall) if wall else 0
    pids: Dict[tuple, int] = {}
    tids: Dict[tuple, int] = {}
    out = []
    for event in events:
        row = (event.clock, event.row)
        pid = pids.get(row)
        if pid is None:
            pid = pids[row] = len(pids) + 1
            out.append(_name("process_name", pid, 0, event.row))
        track = (row, event.track)
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            out.append(_name("thread_name", pid, tid, event.track))
        entry: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "ph": event.ph,
            "ts": event.ts - base if event.clock is None else event.ts,
            "pid": pid,
            "tid": tid,
            "args": dict(event.args),
        }
        if event.ph == "X":
            entry["dur"] = event.dur
        else:
            entry["s"] = "t"    # thread-scoped instant
        out.append(entry)
    doc: Dict[str, Any] = {"traceEvents": out, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc
