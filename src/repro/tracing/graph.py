"""RPC dependency-graph extraction (§4.2).

Given collected traces, reconstruct the microservice topology: a DAG
whose nodes are services and whose edges carry call counts, per-call
request/response size statistics, and per-parent fan-out — everything the
skeleton generator needs to recreate the API interfaces between synthetic
tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.tracing.span import Span, SpanKind
from repro.util.dag import topological_order
from repro.util.errors import ProfilingError
from repro.util.stats import OnlineStats


@dataclass
class EdgeStats:
    """Statistics of one caller->callee RPC edge."""

    calls: int = 0
    operations: Dict[str, int] = field(default_factory=dict)
    request_bytes: OnlineStats = field(default_factory=OnlineStats)
    response_bytes: OnlineStats = field(default_factory=OnlineStats)
    #: mean concurrent calls issued by one parent execution
    calls_per_parent: float = 0.0


@dataclass
class DependencyGraph:
    """The extracted topology."""

    #: service -> callee -> edge stats, both levels in insertion order
    successors: Dict[str, Dict[str, EdgeStats]]
    root_services: List[str]
    operation_mix: Dict[str, Dict[str, float]]   # service -> op -> weight

    def services(self) -> List[str]:
        """All services, topologically sorted from the roots."""
        return topological_order(self.successors)

    def edges(self) -> List[Tuple[str, str]]:
        """Every ``(caller, callee)`` pair, in insertion order."""
        return [(src, dst) for src, callees in self.successors.items()
                for dst in callees]

    def edge(self, src: str, dst: str) -> EdgeStats:
        """Stats for one edge."""
        stats = self.successors.get(src, {}).get(dst)
        if stats is None:
            raise ProfilingError(f"no edge {src!r} -> {dst!r}")
        return stats

    def downstreams(self, service: str) -> List[str]:
        """Callee services of ``service``."""
        return list(self.successors[service])


def extract_dependency_graph(spans: List[Span]) -> DependencyGraph:
    """Reconstruct the service DAG from finished spans.

    Client spans are matched to the server span of the same trace whose
    parent is that client span; edges aggregate call counts and byte-size
    statistics. Roots are services whose server spans have no parent.
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
    successors: Dict[str, Dict[str, EdgeStats]] = {}
    roots: Dict[str, int] = {}
    op_mix: Dict[str, Dict[str, float]] = {}
    callers: Dict[Tuple[str, str], set] = {}  # edge -> parent executions
    for span in finished:
        if span.kind is SpanKind.SERVER:
            successors.setdefault(span.service, {})
            op_mix.setdefault(span.service, {})
            op_mix[span.service][span.operation] = (
                op_mix[span.service].get(span.operation, 0.0) + 1.0
            )
            if span.parent_id is None:
                roots[span.service] = roots.get(span.service, 0) + 1
            continue
        # CLIENT span: its parent is the caller's server span; its child
        # (same-trace server span pointing at it) is the callee.
        if span.parent_id is None:
            continue
        parent = by_id.get((span.trace_id, span.parent_id))
        if parent is None:
            continue
        # The callee is the server span whose parent is this client span.
        callee_span = server_by_parent.get((span.trace_id, span.span_id))
        if callee_span is None:
            continue
        callee_operation = callee_span.operation
        src, dst = parent.service, callee_span.service
        stats = successors.setdefault(src, {}).get(dst)
        if stats is None:
            stats = successors[src][dst] = EdgeStats()
            successors.setdefault(dst, {})
        stats.calls += 1
        stats.operations[callee_operation] = (
            stats.operations.get(callee_operation, 0) + 1
        )
        stats.request_bytes.add(span.tags.get("request_bytes", 0.0))
        stats.response_bytes.add(span.tags.get("response_bytes", 0.0))
        callers.setdefault((src, dst), set()).add(
            (parent.trace_id, parent.span_id))
    # Fan-out per parent execution.
    for (src, dst), parents in callers.items():
        stats = successors[src][dst]
        stats.calls_per_parent = stats.calls / len(parents)
    graph = DependencyGraph(
        successors=successors,
        root_services=sorted(roots, key=roots.get, reverse=True),
        operation_mix=op_mix,
    )
    if len(graph.services()) < len(successors):
        raise ProfilingError("extracted topology contains a cycle")
    if not roots:
        raise ProfilingError("no root services found in traces")
    return graph
