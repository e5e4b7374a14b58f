"""Clustering algorithms.

- :func:`agglomerative_cluster` — average-linkage agglomerative
  clustering over a caller-provided distance function, stopping at a
  distance threshold (cluster count unknown in advance, §4.3.2);
- :func:`hierarchical_feature_clusters` — the same machinery applied to
  numeric feature vectors with Euclidean distance, for the §4.4.2
  instruction clustering by functionality/operands/ALU usage.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, TypeVar

from repro.util.errors import ConfigurationError

T = TypeVar("T")


def agglomerative_cluster(
    items: Sequence[T],
    distance: Callable[[T, T], float],
    threshold: float,
) -> List[List[T]]:
    """Average-linkage agglomerative clustering with a stop threshold.

    Starts from singletons and repeatedly merges the pair of clusters with
    the smallest average inter-cluster distance, until that minimum
    exceeds ``threshold``. Returns clusters ordered by first-seen item.
    """
    if threshold < 0:
        raise ConfigurationError("threshold must be non-negative")
    items = list(items)
    if not items:
        return []
    # Pairwise distance matrix (symmetric, zero diagonal).
    n = len(items)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = float(distance(items[i], items[j]))
            if d < 0 or math.isnan(d):
                raise ConfigurationError("distance must be non-negative")
            dist[i][j] = dist[j][i] = d
    clusters: List[List[int]] = [[i] for i in range(n)]

    def average_linkage(a: List[int], b: List[int]) -> float:
        total = sum(dist[i][j] for i in a for j in b)
        return total / (len(a) * len(b))

    # Cluster-pair linkages, link[x][y] for x < y: the distances while
    # every cluster is a singleton, then average_linkage(clusters[x],
    # clusters[y]). A merge into x changes only x's linkages, so only
    # x's row and column are recomputed (lower index first, the order
    # the scan used to call it in); y's are dropped with it.
    link = [row[:] for row in dist]
    while len(clusters) > 1:
        best = None
        best_distance = math.inf
        for x in range(len(clusters)):
            row = link[x]
            for y in range(x + 1, len(clusters)):
                d = row[y]
                if d < best_distance:
                    best_distance = d
                    best = (x, y)
        if best is None or best_distance > threshold:
            break
        x, y = best
        clusters[x] = clusters[x] + clusters[y]
        del clusters[y]
        del link[y]
        for row in link:
            del row[y]
        merged = clusters[x]
        for z in range(len(clusters)):
            if z < x:
                link[z][x] = average_linkage(clusters[z], merged)
            elif z > x:
                link[x][z] = average_linkage(merged, clusters[z])
    return [[items[i] for i in cluster] for cluster in clusters]


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two equal-length vectors."""
    if len(a) != len(b):
        raise ConfigurationError("vectors must have equal length")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def hierarchical_feature_clusters(
    names: Sequence[str],
    vectors: Sequence[Sequence[float]],
    threshold: float,
) -> List[List[str]]:
    """Cluster named feature vectors (agglomerative, Euclidean).

    Used for the instruction-mix clustering: each cluster groups iforms
    with similar hardware resource requirements.
    """
    if len(names) != len(vectors):
        raise ConfigurationError("names and vectors must align")
    indexed = list(range(len(names)))
    clusters = agglomerative_cluster(
        indexed,
        distance=lambda i, j: euclidean(vectors[i], vectors[j]),
        threshold=threshold,
    )
    return [[names[i] for i in cluster] for cluster in clusters]
