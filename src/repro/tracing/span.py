"""Trace spans."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.util.errors import ConfigurationError


class SpanKind(enum.Enum):
    """Role of a span within a trace."""

    SERVER = "server"   # handling a request
    CLIENT = "client"   # issuing an RPC to a downstream tier


@dataclass
class Span:
    """One unit of traced work.

    Mirrors the OpenTracing data model: a trace id shared across the whole
    request tree, a span id, a parent pointer, the owning service, the
    operation (handler) name, timestamps, and free-form tags (Ditto stores
    request/response byte counts there).
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    service: str
    operation: str
    kind: SpanKind
    start_time: float
    end_time: Optional[float] = None
    tags: Dict[str, float] = field(default_factory=dict)

    def finish(self, end_time: float) -> None:
        """Close the span at ``end_time``."""
        if end_time < self.start_time:
            raise ConfigurationError("span cannot end before it starts")
        self.end_time = end_time

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` was called."""
        return self.end_time is not None
