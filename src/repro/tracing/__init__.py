"""Distributed-tracing substrate (§4.2).

Production microservice deployments run tracers like Jaeger/Zipkin/Dapper;
Ditto reads their end-to-end traces only to learn the RPC dependency
graph. This package provides the span data model, a tracer the runtime
reports RPCs to when a run carries one (profiling is the run that does),
and the reduction of spans to the :class:`Topology` a profile carries.
"""

from repro.tracing.span import Span, SpanKind
from repro.tracing.tracer import Tracer
from repro.tracing.graph import Topology, analyze_topology

__all__ = [
    "Span",
    "SpanKind",
    "Topology",
    "Tracer",
    "analyze_topology",
]
