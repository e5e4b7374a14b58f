"""Working-set profiling and the Eq. 1 / Eq. 2 inversions (§4.4.4–4.4.5).

The Valgrind stand-in sweeps simulated cache sizes over the captured
address traces. Rather than re-simulating an LRU cache once per size, the
sweep computes Mattson reuse distances (distinct lines touched since the
previous access to the same line) in one pass: under fully-associative
LRU an access hits a cache of C lines iff its reuse distance is < C, so
one pass yields the hit counts H(s) for *every* size at once. Distances
come from the vectorized kernel in :mod:`repro.hw.stackdist`, which the
tests cross-validate against the classic O(N log N) Fenwick-tree loop.
The paper notes associativity changes move miss rates by only ~1.9%,
justifying the fully-associative sweep; tests cross-validate it against
the explicit set-associative simulator.

The inversions recover the generator's working-set histograms:

- Eq. 1 (data):  A_d(64) = H_d(64);  A_d(2^i) = H_d(2^i) - H_d(2^(i-1))
- Eq. 2 (insn):  E_i(2^j) = 16 * [H_i(2^j) - H_i(2^(j-1))]  (line-grain H),
  with the 64-byte bin absorbing the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hw.cache import LINE_BYTES
from repro.hw.stackdist import stack_distances
from repro.util.errors import ConfigurationError, ProfilingError
from repro.util.quantize import pow2_bins

#: instructions per cache line assumed by Eq. 2 (64B line / 4B instruction)
INSTRUCTIONS_PER_LINE = 16


def reuse_distances(addresses: np.ndarray) -> np.ndarray:
    """Per-access LRU reuse distance in cache lines (-1 = first touch).

    Delegates to the vectorized stack-distance kernel
    (:func:`repro.hw.stackdist.stack_distances`); the tests check it is
    bit-identical to the online Fenwick-tree formulation.
    """
    lines = np.asarray(addresses, dtype=np.int64) // LINE_BYTES
    return stack_distances(lines)


@dataclass
class WorkingSetProfile:
    """Weighted hit counts H(s) per simulated cache size."""

    sizes: List[int]
    hits: List[float]
    total_weight: float
    per_request_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.hits):
            raise ConfigurationError("sizes and hits must align")
        for a, b in zip(self.hits, self.hits[1:]):
            if b < a - 1e-6:
                raise ConfigurationError("H(s) must be non-decreasing")

    def hit_rate(self, size: int) -> float:
        """Hit fraction at one sweep size."""
        if self.total_weight <= 0:
            return 0.0
        try:
            index = self.sizes.index(size)
        except ValueError:
            raise ConfigurationError(f"size {size} not swept") from None
        return self.hits[index] / self.total_weight


def profile_working_sets(
    addresses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    max_size: int = 256 * 1024 * 1024,
    min_size: int = LINE_BYTES,
) -> WorkingSetProfile:
    """Sweep cache sizes over an address trace (one Mattson pass)."""
    if len(addresses) == 0:
        raise ProfilingError("empty address trace")
    if weights is None:
        weights = np.ones(len(addresses), dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(addresses):
        raise ConfigurationError("weights must align with addresses")
    sizes = pow2_bins(min_size, max_size)
    distances = reuse_distances(addresses)
    hits: List[float] = []
    for size in sizes:
        capacity_lines = max(1, size // LINE_BYTES)
        mask = (distances >= 0) & (distances < capacity_lines)
        hits.append(float(weights[mask].sum()))
    return WorkingSetProfile(
        sizes=sizes, hits=hits, total_weight=float(weights.sum()))


def profile_working_set_regions(
    regions,
    max_size: int = 256 * 1024 * 1024,
    min_size: int = LINE_BYTES,
    steady_state: bool = True,
) -> WorkingSetProfile:
    """Sweep cache sizes over spatially-sampled per-region traces.

    Each region's reuse distances are measured on its sampled lines and
    scaled by its ``line_sample_factor`` to estimate true stack
    distances; H(s) sums over regions. Cross-region interference is a
    second-order effect for working-set extraction (and the paper's Eq. 1
    argument is per-working-set anyway).

    ``steady_state``: a long-running service's lines are not really cold
    — the bounded trace window merely starts mid-stream. First touches
    are therefore assigned the region's steady-state stack distance: the
    full extent for regular (cyclic) traces, and a uniform spread over
    the extent for irregular ones (the stack-distance law of uniform
    random access).
    """
    regions = list(regions)
    if not regions:
        raise ProfilingError("no region traces to sweep")
    sizes = pow2_bins(min_size, max_size)
    hits = np.zeros(len(sizes), dtype=np.float64)
    total = 0.0
    for region in regions:
        distances = reuse_distances(region.addresses).astype(np.float64)
        scaled = distances * region.line_sample_factor
        weights = np.asarray(region.weights, dtype=np.float64)
        total += float(weights.sum())
        valid = distances >= 0
        if steady_state and region.region_bytes > 0:
            first = ~valid
            n_first = int(first.sum())
            if n_first:
                region_lines = max(1.0, region.region_bytes / LINE_BYTES)
                if regularity_ratio(region.addresses) >= 0.5:
                    scaled[first] = region_lines
                else:
                    scaled[first] = np.linspace(
                        region_lines / n_first, region_lines, n_first)
                valid = np.ones_like(valid)
        for index, size in enumerate(sizes):
            capacity_lines = max(1, size // LINE_BYTES)
            mask = valid & (scaled < capacity_lines)
            hits[index] += float(weights[mask].sum())
    return WorkingSetProfile(sizes=sizes, hits=[float(h) for h in hits],
                             total_weight=total)


def region_regularity_ratio(regions, min_region_bytes: float = 0.0,
                            max_region_bytes: float = float("inf")) -> float:
    """Weighted prefetch-coverable fraction across region traces.

    Optionally restricted to regions within a footprint band — the
    generator distinguishes the regularity of large (capacity-missing)
    working sets from small (cache-resident) ones, since only the former
    shapes memory-level behaviour.
    """
    num = 0.0
    den = 0.0
    for region in regions:
        if not min_region_bytes <= region.region_bytes <= max_region_bytes:
            continue
        weight = region.total_weight
        num += regularity_ratio(region.addresses, region.weights) * weight
        den += weight
    if den <= 0:
        return 0.0
    return num / den


def region_chase_ratio(regions, min_region_bytes: float = 0.0) -> float:
    """Weighted dependent-load fraction across region traces."""
    num = 0.0
    den = 0.0
    for region in regions:
        if region.region_bytes < min_region_bytes:
            continue
        weight = region.total_weight
        num += region.chase_frac * weight
        den += weight
    if den <= 0:
        return 0.0
    return num / den


def region_shared_ratio(regions) -> float:
    """Weighted fraction of accesses to lines another thread touches."""
    num = 0.0
    den = 0.0
    for region in regions:
        weight = region.total_weight
        den += weight
        if region.thread2_addresses is not None:
            num += shared_ratio(region.addresses, region.thread2_addresses,
                                region.weights) * weight
    if den <= 0:
        return 0.0
    return num / den


def invert_data_hits(profile: WorkingSetProfile) -> Dict[int, float]:
    """Eq. 1: working-set access histogram from the data-side sweep."""
    result: Dict[int, float] = {}
    previous = 0.0
    for size, hit in zip(profile.sizes, profile.hits):
        if size == profile.sizes[0]:
            accesses = hit
        else:
            accesses = hit - previous
        previous = hit
        if accesses > 1e-9:
            result[size] = accesses * profile.per_request_scale
    return result


def invert_instruction_hits(
    profile: WorkingSetProfile,
    line_grain_hits: bool = False,
) -> Dict[int, float]:
    """Eq. 2: dynamic-execution histogram per instruction working set.

    With ``line_grain_hits`` the sweep counted hit *lines* and the paper's
    16x multiplier recovers instruction executions; our sweep counts
    per-instruction fetches directly, so the default is the multiplier-
    free variant (same histogram, different bookkeeping).
    """
    factor = INSTRUCTIONS_PER_LINE if line_grain_hits else 1
    executions: Dict[int, float] = {}
    previous = 0.0
    total = profile.hits[-1] if profile.hits else 0.0
    assigned = 0.0
    for size, hit in zip(profile.sizes, profile.hits):
        if size == profile.sizes[0]:
            previous = hit
            continue
        value = factor * (hit - previous)
        previous = hit
        if value > 1e-9:
            executions[size] = value * profile.per_request_scale
            assigned += value
    # The smallest bin absorbs the remainder (the paper's 64-byte case).
    remainder = max(0.0, factor * total - assigned * 1.0) if line_grain_hits \
        else max(0.0, total - assigned)
    if remainder > 1e-9:
        executions[profile.sizes[0]] = remainder * profile.per_request_scale
    return executions


def regularity_ratio(
    addresses: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Fraction of accesses a stride prefetcher would cover (§4.4.4).

    An access is *regular* when its line-address delta repeats the
    previous delta, or steps to an adjacent line.
    """
    if len(addresses) < 3:
        return 0.0
    lines = np.asarray(addresses, dtype=np.int64) // LINE_BYTES
    deltas = np.diff(lines)
    repeat = np.zeros(len(lines), dtype=bool)
    repeat[2:] = deltas[1:] == deltas[:-1]
    adjacent = np.zeros(len(lines), dtype=bool)
    adjacent[1:] = np.abs(deltas) <= 1
    regular = repeat | adjacent
    if weights is None:
        return float(np.mean(regular))
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return 0.0
    return float(weights[regular].sum() / total)


def shared_ratio(
    thread1: np.ndarray,
    thread2: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Fraction of thread 1's accesses hitting lines thread 2 also touches."""
    if len(thread1) == 0:
        return 0.0
    lines1 = np.asarray(thread1, dtype=np.int64) // LINE_BYTES
    lines2 = set((np.asarray(thread2, dtype=np.int64) // LINE_BYTES).tolist())
    shared = np.fromiter((int(l) in lines2 for l in lines1), dtype=bool,
                         count=len(lines1))
    if weights is None:
        return float(np.mean(shared))
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return 0.0
    return float(weights[shared].sum() / total)
