"""Wall-clock pipeline spans.

A :class:`SpanCollector` records one
:class:`~repro.telemetry.chrometrace.TraceEvent` per finished span — a
named wall-clock interval whose row is the recording process and whose
track is the recording thread, so a process-pool clone's per-tier
stages land on separate tracks when the collection is exported as a
Chrome trace. Spans are opened with the
module-level :func:`span` context manager, which consults the ambient
telemetry session (:mod:`repro.telemetry.context`): with no session
active it returns a shared no-op object, so instrumented code costs one
context-variable read when telemetry is off.

Spans nest naturally (the exporter reconstructs nesting from interval
containment within a thread) and are exception-safe: a span whose body
raises is still recorded, tagged with the error, and the exception
propagates.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.telemetry.chrometrace import TraceEvent
from repro.telemetry.context import current_session

__all__ = ["SpanCollector", "span"]


class SpanCollector:
    """Accumulates finished spans (thread-safe append)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: TraceEvent) -> None:
        """Record one finished span."""
        with self._lock:
            self.records.append(record)

    def extend(self, records: List[TraceEvent]) -> None:
        """Fold another collector's records in (cross-worker merge)."""
        with self._lock:
            self.records.extend(records)

    def by_name(self) -> Dict[str, List[TraceEvent]]:
        """Records grouped by span name."""
        grouped: Dict[str, List[TraceEvent]] = {}
        for record in self.records:
            grouped.setdefault(record.name, []).append(record)
        return grouped


class _ActiveSpan:
    """Context manager recording one interval into a collector."""

    __slots__ = ("_collector", "_name", "_category", "_args", "_t0",
                 "_ts_us")

    def __init__(self, collector: SpanCollector, name: str, category: str,
                 args: Dict[str, Any]) -> None:
        self._collector = collector
        self._name = name
        self._category = category
        self._args = args
        self._t0 = 0.0
        self._ts_us = 0

    def __enter__(self) -> "_ActiveSpan":
        self._ts_us = time.time_ns() // 1000
        self._t0 = time.perf_counter()
        return self

    def set(self, **args: Any) -> None:
        """Attach arguments to the span after it was opened."""
        self._args.update(args)

    def __exit__(self, exc_type, exc, _tb) -> bool:
        dur_us = (time.perf_counter() - self._t0) * 1e6
        if exc is not None:
            self._args["error"] = repr(exc)
        self._collector.add(TraceEvent(
            name=self._name,
            category=self._category,
            ph="X",
            ts=self._ts_us,
            dur=dur_us,
            row=f"ditto pipeline (pid {os.getpid()})",
            track=threading.current_thread().name,
            args=self._args,
        ))
        return False    # propagate exceptions


class _NoopSpan:
    """Shared do-nothing span for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def set(self, **args: Any) -> None:
        pass

    def __exit__(self, *_exc) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, category: str = "pipeline", *,
         collector: Optional[SpanCollector] = None, **args: Any):
    """Open a wall-clock span named ``name``.

    Records into ``collector`` when given, else into the ambient
    telemetry session's collector; a shared no-op when neither exists.
    Usable both as ``with span("stage"):`` and
    ``with span("stage") as s: s.set(items=n)``.
    """
    if collector is None:
        session = current_session()
        if session is None:
            return _NOOP
        collector = session.spans
    return _ActiveSpan(collector, name, category, dict(args))
