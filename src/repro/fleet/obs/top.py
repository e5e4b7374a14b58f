"""``python -m repro.fleet top`` — a textual fleet dashboard.

One render is a snapshot assembled from the two feeds every process
can read from the store: the job table (states, remediation attempts,
queue age) and the flight log (event volume, corruption count). The
CLI refreshes it on an interval; everything here is pure rendering so
tests can assert on a single frame without a terminal.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.fleet.job import (JobState, RUNNING_STATES, TERMINAL_STATES)
from repro.fleet.obs.flight import FlightLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.store import JobStore

__all__ = ["render_top"]


def render_top(store: "JobStore",
               flight: Optional[FlightLog] = None, *,
               now: Optional[float] = None) -> str:
    """One dashboard frame for the given store."""
    now = time.time() if now is None else now
    records = store.list()
    counts = {state: 0 for state in JobState}
    attempts = 0
    oldest_queued: Optional[float] = None
    for record in records:
        counts[record.state] += 1
        attempts += record.attempts
        if record.state is JobState.SUBMITTED:
            if oldest_queued is None or record.created_at < oldest_queued:
                oldest_queued = record.created_at

    running = sum(counts[state] for state in RUNNING_STATES)
    done = sum(counts[state] for state in TERMINAL_STATES)
    lines = [
        f"ditto fleet top — {store.root}",
        f"jobs: {len(records)} total | queue {counts[JobState.SUBMITTED]}"
        f" | running {running} | done {done}"
        f" | remediation-attempts {attempts}"
        + (f" | oldest queued {now - oldest_queued:.0f}s"
           if oldest_queued is not None else ""),
        "  " + "  ".join(f"{state.value}={counts[state]}"
                         for state in JobState if counts[state]),
    ]

    if flight is not None and (flight.events or flight.skipped):
        kinds = flight.counts()
        top_kinds = sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0]))
        summary = " ".join(f"{kind}={count}"
                           for kind, count in top_kinds[:6])
        span = (flight.events[-1].ts - flight.events[0].ts
                if len(flight.events) > 1 else 0.0)
        lines.append(
            f"flight log: {len(flight.events)} events over {span:.1f}s"
            + (f", {flight.skipped} corrupt skipped" if flight.skipped
               else "")
            + f" | {summary}")
    return "\n".join(lines)
