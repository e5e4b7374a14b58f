"""Working-set profiling and the Eq. 1 / Eq. 2 inversions (§4.4.4–4.4.5).

The Valgrind stand-in sweeps simulated cache sizes over each captured
address trace. Rather than re-simulating an LRU cache once per size, the
sweep computes Mattson reuse distances (distinct lines touched since the
previous access to the same line) in one pass: under fully-associative
LRU an access hits a cache of C lines iff its reuse distance is < C, so
one pass yields the hit counts H(s) for *every* size at once. Distances
come from the vectorized kernel in :mod:`repro.hw.stackdist`, which the
tests cross-validate against the classic O(N log N) Fenwick-tree loop.
The paper notes associativity changes move miss rates by only ~1.9%,
justifying the fully-associative sweep; tests cross-validate it against
the explicit set-associative simulator.

The collector runs these kernels once per sampled region and keeps only
the hit weight per sweep size (a ``RegionStats``); feature extraction
sums those per side.

The inversions recover the generator's working-set histograms:

- Eq. 1 (data):  A_d(64) = H_d(64);  A_d(2^i) = H_d(2^i) - H_d(2^(i-1))
- Eq. 2 (insn):  E_i(2^j) = 16 * [H_i(2^j) - H_i(2^(j-1))]  (line-grain H),
  with the 64-byte bin absorbing the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.cache import LINE_BYTES
from repro.hw.stackdist import stack_distances
from repro.util.errors import ConfigurationError, ProfilingError
from repro.util.quantize import pow2_bins

#: instructions per cache line assumed by Eq. 2 (64B line / 4B instruction)
INSTRUCTIONS_PER_LINE = 16
#: simulated cache sizes of the data-side sweep (64 B .. 256 MB)
DATA_SWEEP_SIZES = tuple(pow2_bins(LINE_BYTES, 256 * 1024 * 1024))
#: simulated cache sizes of the instruction-side sweep (64 B .. 16 MB)
INSTR_SWEEP_SIZES = tuple(pow2_bins(LINE_BYTES, 16 * 1024 * 1024))


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


def sweep_hits(distances: np.ndarray, weights: np.ndarray,
               sizes: Sequence[int]) -> Tuple[float, ...]:
    """Weight of the accesses hitting each simulated cache size.

    An access hits a cache of C lines iff its reuse distance (in lines)
    is < C; a cold access carries an infinite distance.
    """
    return tuple(float(weights[distances < max(1, size // LINE_BYTES)].sum())
                 for size in sizes)


def profile_working_sets(
    addresses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    max_size: int = DATA_SWEEP_SIZES[-1],
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
    distances = reuse_distances(addresses).astype(np.float64)
    distances[distances < 0] = np.inf
    return WorkingSetProfile(
        sizes=sizes, hits=list(sweep_hits(distances, weights, sizes)),
        total_weight=float(weights.sum()))


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
            result[size] = accesses
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
            executions[size] = value
            assigned += value
    # The smallest bin absorbs the remainder (the paper's 64-byte case).
    remainder = max(0.0, factor * total - assigned * 1.0) if line_grain_hits \
        else max(0.0, total - assigned)
    if remainder > 1e-9:
        executions[profile.sizes[0]] = remainder
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
