"""RPC dependency-graph extraction (§4.2).

Given collected traces, reconstruct the microservice topology: a DAG
whose nodes are services and whose edges carry call counts. The cloner
generates and reports synthetic tiers in its order; profiling reduces
its spans to one :class:`Topology`, so a profile carries the graph, not
the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.tracing.span import Span, SpanKind
from repro.util.dag import topological_order
from repro.util.errors import ProfilingError


@dataclass
class Topology:
    """The RPC dependency DAG of a deployment."""

    #: the service most traces start at
    entry_service: str
    #: every service, in Kahn order by generations from the roots
    tiers: List[str]
    #: ``(caller, callee, calls)``, in the order the edges were first seen
    edges: List[Tuple[str, str, int]]

    @property
    def tier_count(self) -> int:
        """Number of services in the topology."""
        return len(self.tiers)

    def fan_out(self, service: str) -> int:
        """Distinct downstream services of one tier."""
        return sum(1 for caller, _, _ in self.edges if caller == service)


def analyze_topology(spans: Iterable[Span]) -> Topology:
    """Reconstruct the service DAG from finished spans.

    A client span is an edge from its parent server span's service to
    the service of the same-trace server span whose parent it is. Roots
    are services whose server spans have no parent; the entry is the
    root with the most traces (the first seen among equals).
    """
    finished = [span for span in spans if span.finished]
    if not finished:
        raise ProfilingError("no finished spans to extract a topology from")
    by_id: Dict[Tuple[int, int], Span] = {
        (span.trace_id, span.span_id): span for span in finished
    }
    server_by_parent: Dict[Tuple[int, int], Span] = {
        (span.trace_id, span.parent_id): span
        for span in finished
        if span.kind is SpanKind.SERVER and span.parent_id is not None
    }
    #: caller -> callee -> calls, both levels in insertion order
    calls: Dict[str, Dict[str, int]] = {}
    roots: Dict[str, int] = {}
    for span in finished:
        if span.kind is SpanKind.SERVER:
            calls.setdefault(span.service, {})
            if span.parent_id is None:
                roots[span.service] = roots.get(span.service, 0) + 1
            continue
        parent = by_id.get((span.trace_id, span.parent_id))
        callee = server_by_parent.get((span.trace_id, span.span_id))
        if parent is None or callee is None:
            continue
        callees = calls.setdefault(parent.service, {})
        callees[callee.service] = callees.get(callee.service, 0) + 1
        calls.setdefault(callee.service, {})
    tiers = topological_order(calls)
    if len(tiers) < len(calls):
        raise ProfilingError("extracted topology contains a cycle")
    if not roots:
        raise ProfilingError("no root services found in traces")
    return Topology(
        entry_service=max(roots, key=roots.get),
        tiers=tiers,
        edges=[(caller, callee, count)
               for caller, callees in calls.items()
               for callee, count in callees.items()],
    )
