"""Vectorized Mattson stack distances (the §4.4.4 sweep kernel).

The LRU stack distance of access ``i`` is the number of *distinct*
values touched strictly between ``i`` and the previous access to the
same value (``-1`` on first touch). Under (fully associative) LRU, an
access hits a cache of ``C`` lines iff its stack distance is ``< C`` —
the inclusion property that lets one pass price every cache size.

The classic online computation (a Fenwick tree over marked positions,
kept as the tests' reference) is an O(N log N) *Python* loop, which dominated profiling sweeps. This module
computes the same distances with NumPy only:

with ``prev[i]`` the previous-occurrence index, the duplicates inside
the window ``(prev[i], i)`` are exactly the positions ``t`` whose own
``prev[t]`` exceeds ``prev[i]`` (for ``t <= prev[i]`` that is impossible
since ``prev[t] < t``), so

    distance[i] = (i - prev[i] - 1) - #{t < i : prev[t] > prev[i]}

which reduces the problem to per-element *inversion counts* over the
``prev`` sequence — computed by a bottom-up mergesort whose per-level
merge/count steps are whole-array NumPy operations (sort each block,
rank one half against the other with a single offset-flattened
``searchsorted``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["previous_occurrences", "count_prior_larger", "stack_distances"]


def previous_occurrences(values: np.ndarray) -> np.ndarray:
    """``prev[i]`` = last ``j < i`` with ``values[j] == values[i]``, else -1."""
    values = np.asarray(values)
    n = values.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def count_prior_larger(values: np.ndarray) -> np.ndarray:
    """``counts[j]`` = ``#{k < j : values[k] > values[j]}`` (vectorized).

    ``values`` must be non-negative integers. Bottom-up mergesort: at
    each level the left half of every block holds strictly earlier
    original positions than the right half, so ranking right-half
    elements against the (sorted) left half counts exactly the
    cross-half inversions; within-half inversions were counted at the
    previous level. All blocks are ranked with one ``searchsorted`` by
    offsetting each block into its own disjoint value range.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    size = 1 << (n - 1).bit_length()
    pad = int(values.max()) + 1  # sorts after every real value
    # Pack (value, original position) into one int64 so a plain sort is
    # a stable sort carrying provenance: packed // size recovers the
    # value, packed % size the position. Left-half positions are always
    # smaller than right-half positions, so packed_left < packed_right
    # iff value_left <= value_right — exactly the <= rank we need.
    # (Bounded by ~2 n^2; overflows int64 only beyond ~2e9 elements.)
    packed = np.full(size, pad * size, dtype=np.int64)
    packed[:n] = values * size + np.arange(n, dtype=np.int64)
    packed[n:] += np.arange(n, size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    half_slots = np.arange(size // 2, dtype=np.int64)
    width = 1
    while width < size:
        packed = np.sort(packed.reshape(-1, 2 * width), axis=1).ravel()
        positions = packed & (size - 1)
        # Merges permute only within fixed (aligned, power-of-two) block
        # spans, so an element's half at this level is determined by its
        # original position's low bits.
        is_right = (positions & (2 * width - 1)) >= width
        slots = np.nonzero(is_right)[0]
        # Each block holds exactly `width` right-half elements, still in
        # value order after the merge, so the k-th right element of a
        # block has right-rank k; the left-half elements preceding it in
        # merged order are its in-block slot minus that rank — i.e. the
        # left elements with value <= its value.
        left_before = (slots & (2 * width - 1)) - (half_slots & (width - 1))
        # Pads only ever meet all-pad right halves (they occupy a suffix
        # of the original array), so they contribute no spurious counts.
        counts[positions[slots]] += width - left_before
        width *= 2
    return counts[:n]


def stack_distances(values: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distance over ``values`` (-1 = first touch)."""
    values = np.asarray(values)
    n = values.shape[0]
    distances = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return distances
    prev = previous_occurrences(values)
    repeats = np.nonzero(prev >= 0)[0]
    if repeats.size:
        inversions = count_prior_larger(prev[repeats])
        distances[repeats] = repeats - prev[repeats] - 1 - inversions
    return distances
