"""The collecting tracer."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.tracing.span import Span, SpanKind


class Tracer:
    """Records every span of every trace.

    The one reader of traces is topology analysis, which needs complete
    request trees, so a tracer records all of them; a run that nobody
    reads traces from carries no tracer at all.
    """

    def __init__(self) -> None:
        self._next_trace_id = 1
        self._next_span_id = 1
        self.spans: List[Span] = []

    def start_trace(self) -> int:
        """Open a new trace; returns its id."""
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return trace_id

    def start_span(
        self,
        trace_id: int,
        service: str,
        operation: str,
        kind: SpanKind,
        start_time: float,
        parent_id: Optional[int] = None,
        tags: Optional[Dict[str, float]] = None,
    ) -> Span:
        """Open a span."""
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            service=service,
            operation=operation,
            kind=kind,
            start_time=start_time,
            tags=dict(tags or {}),
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def finished_spans(self) -> List[Span]:
        """All closed spans collected so far."""
        return [span for span in self.spans if span.finished]
