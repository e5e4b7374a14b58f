"""Cache models.

Two complementary views of the same hardware:

- :class:`SetAssociativeCache` — an explicit set-associative LRU cache
  simulator. This is what the Valgrind-like working-set profiler drives
  when it sweeps "cache sizes" (§4.4.4): it replays sampled address
  streams and counts hits, exactly as ``cachegrind`` would.
- closed-form hit/miss fractions for the runtime timing model
  (:func:`miss_fraction`), exploiting the paper's key observation: for a
  sequential loop over a working set of W bytes under (pseudo-)LRU, every
  access hits when the cache is at least W bytes and misses otherwise,
  independent of hierarchy depth or inclusion policy.

:class:`CacheHierarchy` composes per-level configs into the L1i/L1d/L2/LLC
stack of Table 1's platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List

import numpy as np

from repro.hw.ir import MemAccessSpec, MemPattern
from repro.hw.stackdist import stack_distances
from repro.util.errors import ConfigurationError

LINE_BYTES = 64

#: below this many addresses the scalar LRU walk beats batch setup costs
_BATCH_MIN = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: float
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes < self.line_bytes:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} below one line"
            )
        if self.associativity < 1:
            raise ConfigurationError(f"{self.name}: associativity must be >= 1")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of line*associativity"
            )
        if self.latency_cycles < 0:
            raise ConfigurationError(f"{self.name}: negative latency")
        # Precomputed (not a dataclass field: digests/eq/repr unchanged) —
        # the simulator reads this once per access.
        object.__setattr__(
            self, "num_sets",
            self.size_bytes // (self.line_bytes * self.associativity))

    def scaled(self, factor: float) -> "CacheConfig":
        """A config with capacity scaled by ``factor`` (sets rounded down).

        Used by the contention model to express a co-runner stealing
        capacity. The result keeps associativity and never shrinks below
        one set.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        new_sets = max(1, int(self.num_sets * factor))
        return replace(
            self, size_bytes=new_sets * self.line_bytes * self.associativity
        )


class SetAssociativeCache:
    """Explicit set-associative LRU cache simulator over line addresses.

    Addresses are byte addresses; the simulator tracks tags per set with
    true-LRU replacement. It is used by profilers (cache-size sweeps) and
    by tests that validate the closed-form model against simulation.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (state is kept)."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.reset_stats()

    @property
    def accesses(self) -> int:
        """Total accesses observed since the last counter reset."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction since the last counter reset (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        config = self.config
        line = address // config.line_bytes
        ways = self._sets[line % config.num_sets]
        try:
            position = ways.index(line)
        except ValueError:
            self.misses += 1
            ways.insert(0, line)
            if len(ways) > config.associativity:
                ways.pop()
            return False
        self.hits += 1
        ways.insert(0, ways.pop(position))
        return True

    def access_many(self, addresses: Iterable[int]) -> int:
        """Access a stream of addresses; returns the number of hits.

        Large array-like streams take a vectorized path (one Mattson
        stack-distance pass over all sets at once — a within-set
        distance below the associativity is a hit under true LRU) that
        leaves the counters *and* the resident state exactly as the
        per-access walk would; tests cross-check the two.
        """
        if not isinstance(addresses, np.ndarray):
            arr = np.asarray(addresses)
        else:
            arr = addresses
        if arr.dtype == object or arr.ndim != 1 or arr.shape[0] < _BATCH_MIN:
            return self._access_many_scalar(addresses)
        return self._access_many_batch(arr.astype(np.int64, copy=False))

    def _access_many_scalar(self, addresses: Iterable[int]) -> int:
        """Per-access reference walk (also the small-batch fast path)."""
        before = self.hits
        for address in addresses:
            self.access(int(address))
        return self.hits - before

    def _access_many_batch(self, addr: np.ndarray) -> int:
        config = self.config
        num_sets = config.num_sets
        associativity = config.associativity
        lines = addr // config.line_bytes
        sets = lines % num_sets
        # Current contents become pseudo-accesses in LRU->MRU order, so
        # batch accesses to resident lines see their true recency depth.
        prefix: List[int] = []
        for set_index in np.unique(sets).tolist():
            ways = self._sets[set_index]
            if ways:
                prefix.extend(ways[::-1])
        n_prefix = len(prefix)
        if n_prefix:
            all_lines = np.concatenate(
                [np.asarray(prefix, dtype=np.int64), lines])
        else:
            all_lines = lines
        all_sets = all_lines % num_sets
        # Stable sort groups each set's accesses contiguously (prefix
        # entries first, then batch entries in time order); same-set
        # stack distances are then computable in one global pass, since
        # a reuse window never crosses a set boundary.
        order = np.argsort(all_sets, kind="stable")
        ordered = all_lines[order]
        distances = stack_distances(ordered)
        batch_distances = distances[order >= n_prefix]
        hits = int(np.count_nonzero(
            (batch_distances >= 0) & (batch_distances < associativity)))
        self.hits += hits
        self.misses += lines.shape[0] - hits
        # Final residents per set = the associativity most recently used
        # distinct lines; rebuild only the touched sets.
        reverse = ordered[::-1]
        unique_lines, first_in_reverse = np.unique(reverse, return_index=True)
        last_position = ordered.shape[0] - 1 - first_in_reverse
        unique_sets = unique_lines % num_sets
        mru_order = np.lexsort((-last_position, unique_sets))
        grouped_sets = unique_sets[mru_order]
        grouped_lines = unique_lines[mru_order]
        starts = np.nonzero(
            np.r_[True, grouped_sets[1:] != grouped_sets[:-1]])[0]
        ends = np.r_[starts[1:], grouped_sets.shape[0]]
        sets_list = self._sets
        for set_index, start, end in zip(grouped_sets[starts].tolist(),
                                         starts.tolist(), ends.tolist()):
            sets_list[set_index] = \
                grouped_lines[start:min(end, start + associativity)].tolist()
        return hits


def generate_access_stream(
    spec: MemAccessSpec,
    rng: np.random.Generator,
    length: int,
    base: int = 0,
) -> np.ndarray:
    """Materialise a byte-address stream realising ``spec``'s pattern.

    The application models and the synthetic clones both turn their
    :class:`MemAccessSpec`s into concrete streams through this single
    function, so profilers observe addresses produced by the same
    mechanics for either side.
    """
    if length <= 0:
        raise ConfigurationError("stream length must be positive")
    lines = max(1, spec.wset_bytes // LINE_BYTES)
    if spec.pattern is MemPattern.SEQUENTIAL:
        offsets = np.arange(length) % lines
    elif spec.pattern is MemPattern.STRIDED:
        # Stride of 2 lines still touches every line over two sweeps.
        stride = 2
        offsets = (np.arange(length) * stride) % lines
    elif spec.pattern is MemPattern.RANDOM:
        offsets = rng.integers(0, lines, size=length)
    elif spec.pattern in (MemPattern.POINTER_CHASE, MemPattern.SHUFFLED):
        # A fixed random permutation cycle — irregular; for POINTER_CHASE
        # additionally each load depends on the previous one.
        perm = rng.permutation(lines)
        offsets = perm[np.arange(length) % lines]
    else:  # pragma: no cover - exhaustive over enum
        raise ConfigurationError(f"unknown pattern {spec.pattern}")
    return (base + offsets * LINE_BYTES).astype(np.int64)


def miss_fraction(spec: MemAccessSpec, cache_bytes: float) -> float:
    """Steady-state miss fraction of ``spec`` against a ``cache_bytes`` cache.

    Closed forms matching :class:`SetAssociativeCache` behaviour:

    - sequential/strided/pointer-chase cyclic patterns: all-hit when the
      working set fits, all-miss otherwise (the §4.4.4 LRU argument);
    - random: per-access hit probability is the resident fraction
      ``cache/W`` (capped at 1).
    """
    if cache_bytes <= 0:
        return 1.0
    if spec.pattern is MemPattern.RANDOM:
        wset = float(spec.wset_bytes)
        return float(max(0.0, 1.0 - min(1.0, cache_bytes / wset)))
    return 0.0 if float(spec.wset_bytes) <= cache_bytes else 1.0


class CacheHierarchy:
    """The per-core view of an L1i/L1d/L2/LLC stack plus memory latency."""

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
        memory_latency_cycles: float,
    ) -> None:
        if not l1d.size_bytes <= l2.size_bytes <= llc.size_bytes:
            raise ConfigurationError("cache sizes must be monotone L1d<=L2<=LLC")
        if memory_latency_cycles <= 0:
            raise ConfigurationError("memory latency must be positive")
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.llc = llc
        self.memory_latency_cycles = memory_latency_cycles

    def with_effective_sizes(
        self,
        l1i_factor: float = 1.0,
        l1d_factor: float = 1.0,
        l2_factor: float = 1.0,
        llc_factor: float = 1.0,
    ) -> "CacheHierarchy":
        """A hierarchy with capacities scaled by contention factors."""
        return CacheHierarchy(
            self.l1i.scaled(l1i_factor),
            self.l1d.scaled(l1d_factor),
            self.l2.scaled(l2_factor),
            self.llc.scaled(llc_factor),
            self.memory_latency_cycles,
        )
