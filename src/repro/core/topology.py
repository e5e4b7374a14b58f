"""Microservice-topology analysis (§4.2).

A thin orchestration layer over the tracing substrate: validates the
extracted RPC DAG, summarises per-edge call statistics, and exposes the
tier ordering the cloner generates synthetic services in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.tracing.graph import DependencyGraph, extract_dependency_graph
from repro.tracing.span import Span


@dataclass
class TopologySummary:
    """The analysed topology plus handy derived views."""

    graph: DependencyGraph
    entry_service: str
    tiers: List[str]
    edges: List[Tuple[str, str, int]]

    @property
    def tier_count(self) -> int:
        """Number of services in the topology."""
        return len(self.tiers)

    def fan_out(self, service: str) -> int:
        """Distinct downstream services of one tier."""
        return len(self.graph.downstreams(service))


def analyze_topology(spans: List[Span]) -> TopologySummary:
    """Extract and summarise the RPC dependency DAG from traces."""
    graph = extract_dependency_graph(spans)
    entry = graph.root_services[0]
    tiers = graph.services()
    edges = [
        (src, dst, graph.edge(src, dst).calls)
        for src, dst in graph.edges()
    ]
    return TopologySummary(
        graph=graph,
        entry_service=entry,
        tiers=tiers,
        edges=edges,
    )
