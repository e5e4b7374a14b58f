"""The fleet flight recorder: an append-only, crash-readable event log.

Every consequential moment in a fleet run — a job submitted, a
state-machine edge taken, a lease claimed or released, a crash
recovery, a remediation rung, a cache summary, a published result —
is appended as one JSONL line to ``<store>/flight/events.jsonl`` by
whichever process witnessed it (scheduler, pool worker, CLI). The log
is the fleet's black box: after a crash it reconstructs exactly what
every job went through, in order, across processes.

Crash-readability is structural, not best-effort:

- **append-only, one ``write(2)`` per event** — lines are written with
  ``O_APPEND`` in a single syscall, so concurrent writers (process-pool
  workers included) never interleave bytes within a line, and a killed
  process can lose at most its final, partial line;
- **per-line integrity envelope** — each line carries a SHA-256
  signature over its canonical payload; a torn tail or a flipped bit
  fails verification and is *skipped and counted*, never trusted;
- **monotonic sequence numbers** — each writer process stamps a
  process-wide monotonic ``seq``, so events from one pid totally order
  even when wall-clock timestamps collide; the reader merges streams
  by ``(ts, pid, seq)``.

The recorder is pure wall-clock side logging: it never touches a
random stream, so clone output is bit-identical with it on or off.
:meth:`FlightLog.trace_events` lowers the log into the telemetry
package's :class:`~repro.telemetry.chrometrace.TraceEvent` records on
the wall clock, so one exporter merges it with the pipeline spans into
one Perfetto timeline (``python -m repro.fleet trace``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.chrometrace import TraceEvent

__all__ = [
    "FLIGHT_FORMAT",
    "FlightEvent",
    "FlightLog",
    "FlightRecorder",
    "read_flight_log",
]

#: format tag stamped on every event line
FLIGHT_FORMAT = "ditto-flight/1"

#: hex digits of the per-line SHA-256 signature kept on disk
_SIG_HEX = 16

#: the trace row every flight event renders in
FLIGHT_ROW = "fleet flight recorder"

#: one process-wide event counter shared by every recorder instance, so
#: ``(pid, seq)`` is unique and monotonic no matter how many JobStore
#: handles a process opens
_SEQ = itertools.count()
_SEQ_LOCK = threading.Lock()


def _next_seq() -> int:
    with _SEQ_LOCK:
        return next(_SEQ)


def _sign(body: Dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_SIG_HEX]


@dataclass(frozen=True)
class FlightEvent:
    """One recorded fleet event (verified on read)."""

    seq: int
    ts: float
    pid: int
    kind: str
    job_id: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def order(self) -> Tuple[float, int, int]:
        """The merge key across writer processes."""
        return (self.ts, self.pid, self.seq)

    @property
    def state(self) -> Optional[str]:
        """The job state this event enters, or None if it enters none."""
        if self.kind == "job_submitted":
            return "submitted"
        if self.kind == "job_state":
            return self.data.get("to", "")
        return None


class FlightRecorder:
    """Appends verified events to one flight log file."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fd: Optional[int] = None
        self._pid = os.getpid()

    def _handle(self) -> int:
        # Re-open after fork: an inherited descriptor would stamp the
        # parent's pid on the child's O_APPEND offset bookkeeping.
        if self._fd is None or self._pid != os.getpid():
            self._pid = os.getpid()
            self._fd = os.open(self.path,
                               os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                               0o644)
        return self._fd

    def emit(self, kind: str, *, job_id: str = "",
             **data: Any) -> FlightEvent:
        """Record one event; returns it (mostly for tests)."""
        event = FlightEvent(seq=_next_seq(), ts=time.time(),
                            pid=os.getpid(), kind=kind, job_id=job_id,
                            data=dict(data))
        body = {
            "format": FLIGHT_FORMAT,
            "seq": event.seq, "ts": event.ts, "pid": event.pid,
            "kind": event.kind, "job_id": event.job_id,
            "data": event.data,
        }
        line = json.dumps({**body, "sig": _sign(body)},
                          sort_keys=True, separators=(",", ":"))
        os.write(self._handle(), (line + "\n").encode("utf-8"))
        return event

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


@dataclass
class FlightLog:
    """A parsed flight log: verified events plus corruption accounting."""

    events: List[FlightEvent] = field(default_factory=list)
    #: lines that failed JSON parsing or signature verification (a torn
    #: tail after a crash lands here — it is expected, not an error)
    skipped: int = 0

    def filter(self, *, job_id: Optional[str] = None,
               kind: Optional[str] = None) -> List[FlightEvent]:
        """Events matching the given job and/or kind, in merge order."""
        return [event for event in self.events
                if (job_id is None or event.job_id == job_id)
                and (kind is None or event.kind == kind)]

    def job_ids(self) -> List[str]:
        """Every job the log mentions, in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            if event.job_id and event.job_id not in seen:
                seen[event.job_id] = None
        return list(seen)

    def lifecycle(self, job_id: str) -> List[str]:
        """One job's state sequence as recorded, submission included.

        The reconstruction the acceptance gate checks: a crashed and
        recovered job shows ``... -> tuning -> submitted -> ...`` with
        the requeue edge carrying reason ``recovered``.
        """
        return [event.state for event in self.filter(job_id=job_id)
                if event.state is not None]

    def counts(self) -> Dict[str, int]:
        """Events per kind (the ``top`` dashboard's summary feed)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def trace_events(self) -> List[TraceEvent]:
        """The log as wall-clock trace events, in merge order.

        One row (:data:`FLIGHT_ROW`), one track per job (plus a
        ``fleet`` track for store-level events). Consecutive state
        events of a job become an interval named after the state the
        job was *in* between them, so its lifecycle reads as a bar per
        phase; every event is also an instant.
        """
        out: List[TraceEvent] = []
        open_state: Dict[str, Tuple[str, float]] = {}
        for event in self.events:
            track = event.job_id or "fleet"
            ts_us = event.ts * 1e6
            state = event.state
            if event.job_id and state is not None:
                previous = open_state.get(event.job_id)
                if previous is not None:
                    name, since_us = previous
                    out.append(TraceEvent(name, "fleet", "X", since_us,
                                          max(0.0, ts_us - since_us),
                                          FLIGHT_ROW, track))
                open_state[event.job_id] = (state, ts_us)
            out.append(TraceEvent(
                event.kind, "fleet", "i", ts_us, 0.0, FLIGHT_ROW, track,
                args={"job_id": event.job_id, "seq": event.seq,
                      "writer_pid": event.pid, **event.data}))
        return out


def _parse_line(line: str) -> Optional[FlightEvent]:
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("format") != FLIGHT_FORMAT:
        return None
    sig = doc.pop("sig", None)
    if sig != _sign(doc):
        return None
    try:
        return FlightEvent(seq=int(doc["seq"]), ts=float(doc["ts"]),
                           pid=int(doc["pid"]), kind=str(doc["kind"]),
                           job_id=str(doc.get("job_id", "")),
                           data=dict(doc.get("data", {})))
    except (KeyError, TypeError, ValueError):
        return None


def read_flight_log(path: str) -> FlightLog:
    """Parse a flight log; corrupt/torn lines are skipped and counted.

    Reading never raises on content: a log truncated mid-line by a
    crash yields every complete event before the tear. A missing file
    reads as an empty log.
    """
    log = FlightLog()
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return log
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = _parse_line(line)
            if event is None:
                log.skipped += 1
            else:
                log.events.append(event)
    log.events.sort(key=lambda event: event.order)
    return log
