"""Thread-model profiling (§4.3.2).

Clusters observed threads by call-graph similarity (tree-edit distance +
agglomerative clustering with an unknown cluster count), classifies each
cluster's role, lifecycle, and trigger, and detects connection-scaling
classes by comparing thread counts across the two connection settings the
prober experimented with.

Threads of one class usually share a call-tree shape, so a service's
dozens of observations carry only a handful of distinct trees: the
profile keeps one table of shapes, and each observation names its shape
by number. The distance of two observations depends on their shapes
alone; it is computed once per ordered pair of shape numbers and reused
for every other pair of observations with the same shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.clustering import agglomerative_cluster
from repro.analysis.treedit import CallTree, normalized_tree_distance
from repro.profiling.artifacts import ServiceArtifacts, ThreadObservation
from repro.util.errors import ProfilingError

#: normalised tree-edit distance below which threads share a class
CLUSTER_THRESHOLD = 0.4


def _tree_labels(tree: CallTree) -> List[str]:
    labels = [tree.label]
    for child in tree.children:
        labels.extend(_tree_labels(child))
    return labels


@dataclass
class ReconstructedThreadClass:
    """One inferred thread class."""

    name: str
    role: str                         # "acceptor" | "worker" | "background"
    count: int
    scales_with_connections: bool
    trigger: str                      # "socket" | "timer" | ...
    short_lived: bool


@dataclass
class ThreadModelProfile:
    """The inferred thread model."""

    classes: List[ReconstructedThreadClass] = field(default_factory=list)


def _classify_role(labels: List[str], trigger: str) -> str:
    if "accept" in labels:
        return "acceptor"
    if trigger == "timer" or "nanosleep" in labels:
        return "background"
    return "worker"


def profile_thread_model(artifacts: ServiceArtifacts) -> ThreadModelProfile:
    """Cluster and classify the observed threads."""
    if not artifacts.threads:
        raise ProfilingError(f"{artifacts.service}: no thread observations")
    observations = artifacts.threads
    shapes = artifacts.thread_shapes
    memo: Dict[Tuple[int, int], float] = {}

    def distance(a: ThreadObservation, b: ThreadObservation) -> float:
        pair = (a.shape, b.shape)
        found = memo.get(pair)
        if found is None:
            found = memo[pair] = normalized_tree_distance(shapes[a.shape],
                                                          shapes[b.shape])
        return found

    # The clustering still sees every observation, in order, with the
    # same distances, so it sums linkages and merges exactly as before.
    clusters = agglomerative_cluster(
        observations, distance=distance, threshold=CLUSTER_THRESHOLD)
    connection_settings = sorted({obs.connections for obs in observations})
    profile = ThreadModelProfile()
    for index, cluster in enumerate(clusters):
        labels = _tree_labels(shapes[cluster[0].shape])
        trigger_votes: Dict[str, int] = {}
        for obs in cluster:
            trigger_votes[obs.trigger] = trigger_votes.get(obs.trigger, 0) + 1
        trigger = max(trigger_votes, key=trigger_votes.get)
        role = _classify_role(labels, trigger)
        # Count per connection setting to detect scaling.
        counts_by_setting = {
            setting: sum(1 for obs in cluster if obs.connections == setting)
            for setting in connection_settings
        }
        scales = False
        if len(connection_settings) >= 2 and role == "worker":
            low, high = connection_settings[0], connection_settings[-1]
            low_count = counts_by_setting.get(low, 0)
            high_count = counts_by_setting.get(high, 0)
            if low_count > 0 and high_count > low_count:
                # Counts grow roughly with connections -> dynamic pool.
                scales = (high_count / low_count
                          > 0.5 * (high / max(1, low)))
        count = counts_by_setting.get(connection_settings[-1], len(cluster))
        short_lived = (sum(1 for obs in cluster if obs.short_lived)
                       > len(cluster) / 2)
        profile.classes.append(ReconstructedThreadClass(
            name=f"class_{index}",
            role=role,
            count=max(1, count),
            scales_with_connections=scales,
            trigger=trigger,
            short_lived=short_lived,
        ))
    return profile
