"""Hardware-facing intermediate representation of application code.

Both the "original" application models and Ditto's synthetic clones are
expressed as :class:`BlockSpec` objects — the contract between software
models and the hardware timing model. A block corresponds to one of the
looping inline-assembly blocks in the paper's Fig. 3: a static code region
executed some number of times per request, with characteristic instruction
mix, memory accesses, branches and data dependencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.isa.instructions import iform
from repro.util.errors import ConfigurationError
from repro.util.quantize import bin_index, exponential_bins


class MemPattern(enum.Enum):
    """Data-access pattern within one working set.

    - ``SEQUENTIAL``: iterate cache lines in order (the synthetic pattern
      of Fig. 4; hardware-prefetcher friendly; exact LRU threshold
      behaviour — hit iff working set fits);
    - ``STRIDED``: constant stride > 1 line (prefetcher still detects);
    - ``RANDOM``: uniform random line within the working set (prefetcher
      hostile; partial hits when the set exceeds the cache);
    - ``SHUFFLED``: a fixed random permutation of the working set's lines,
      looped — the pattern Ditto's generator hard-codes for irregular
      accesses: same all-hit/all-miss threshold behaviour as SEQUENTIAL
      (the §4.4.4 LRU argument holds for any fixed visit order), but
      opaque to a stride prefetcher and to a reverse engineer;
    - ``POINTER_CHASE``: serialised dependent loads (kills MLP).
    """

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    RANDOM = "random"
    SHUFFLED = "shuffled"
    POINTER_CHASE = "pointer_chase"


#: Patterns a stride prefetcher can cover.
REGULAR_PATTERNS = (MemPattern.SEQUENTIAL, MemPattern.STRIDED)


@dataclass(frozen=True)
class MemAccessSpec:
    """Memory accesses against one working set, per block iteration.

    ``accesses`` counts cache-line touches per iteration; ``write_frac``
    is the store fraction; ``shared_frac`` the fraction hitting data
    shared across threads (coherence-miss exposure, §4.4.4).
    """

    wset_bytes: int
    accesses: float
    pattern: MemPattern = MemPattern.SEQUENTIAL
    write_frac: float = 0.0
    shared_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.wset_bytes < 64:
            raise ConfigurationError(
                f"working set must be >= one cache line (64B), got {self.wset_bytes}"
            )
        if self.accesses < 0:
            raise ConfigurationError("accesses must be non-negative")
        for name in ("write_frac", "shared_frac"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    @property
    def is_regular(self) -> bool:
        """True when a stride prefetcher can cover this pattern."""
        return self.pattern in REGULAR_PATTERNS


@dataclass(frozen=True)
class BranchSpec:
    """A conditional-branch population inside a block.

    ``executions`` is dynamic executions per block iteration spread over
    ``static_count`` static branch sites. ``taken_rate`` and
    ``transition_rate`` are the §4.4.3 statistics: the probability a
    dynamic instance is taken, and the probability consecutive instances
    differ in direction.
    """

    executions: float
    taken_rate: float
    transition_rate: float
    static_count: int = 1

    def __post_init__(self) -> None:
        for name in ("taken_rate", "transition_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.executions < 0:
            raise ConfigurationError("executions must be non-negative")
        if self.static_count < 1:
            raise ConfigurationError("static_count must be >= 1")


#: Dependency-distance bin edges — 11 exponential bins, 1..1024 (§4.4.6).
DEP_DISTANCE_BINS: Tuple[int, ...] = tuple(exponential_bins(1, 1024))


@dataclass(frozen=True)
class DependencyProfile:
    """RAW/WAR/WAW dependency-distance distributions over the 11 bins.

    Each mapping goes bin-edge -> weight. RAW distances bound ILP; the
    profile also records the pointer-chase fraction that bounds MLP.
    """

    raw: Mapping[int, float] = field(default_factory=dict)
    war: Mapping[int, float] = field(default_factory=dict)
    waw: Mapping[int, float] = field(default_factory=dict)
    pointer_chase_frac: float = 0.0

    def __post_init__(self) -> None:
        for name in ("raw", "war", "waw"):
            for edge in getattr(self, name):
                if edge not in DEP_DISTANCE_BINS:
                    raise ConfigurationError(
                        f"{name} bin edge {edge} not in {DEP_DISTANCE_BINS}"
                    )
        if not 0.0 <= self.pointer_chase_frac <= 1.0:
            raise ConfigurationError("pointer_chase_frac must be in [0, 1]")

    def mean_raw_distance(self, default: float = 16.0) -> float:
        """Weighted mean RAW distance (instructions); ``default`` if empty."""
        total = sum(self.raw.values())
        if total <= 0.0:
            return default
        return sum(edge * weight for edge, weight in self.raw.items()) / total

    @staticmethod
    def quantize_distance(distance: float) -> int:
        """Snap a raw distance onto the 11-bin grid."""
        if distance < 1:
            distance = 1
        return DEP_DISTANCE_BINS[bin_index(distance, DEP_DISTANCE_BINS)]


@dataclass(frozen=True)
class BlockSpec:
    """One static code block: the unit the timing model prices.

    - ``iform_counts``: dynamic executions of each iform per iteration;
    - ``iterations``: loop count per request (the <LOOP_COUNT> of Fig. 3);
    - ``code_bytes``: static footprint of the block's instructions;
    - ``mem``: data accesses per iteration;
    - ``branches``: conditional-branch populations per iteration;
    - ``deps``: dependency-distance profile;
    - ``rep_elements``: average repeat count for REP-prefixed iforms.
    """

    name: str
    iform_counts: Mapping[str, float]
    iterations: float = 1.0
    code_bytes: int = 0
    mem: Tuple[MemAccessSpec, ...] = ()
    branches: Tuple[BranchSpec, ...] = ()
    deps: DependencyProfile = field(default_factory=DependencyProfile)
    rep_elements: float = 64.0

    def __post_init__(self) -> None:
        for name in self.iform_counts:
            iform(name)  # validates existence
        if self.iterations < 0:
            raise ConfigurationError("iterations must be non-negative")
        if self.code_bytes < 0:
            raise ConfigurationError("code_bytes must be non-negative")

    @property
    def instructions_per_iteration(self) -> float:
        """Dynamic instruction count per loop iteration."""
        return float(sum(self.iform_counts.values()))

    @property
    def instructions_per_request(self) -> float:
        """Dynamic instruction count contributed per request."""
        return self.instructions_per_iteration * self.iterations

    def static_code_bytes(self) -> int:
        """The block's code footprint.

        Explicit ``code_bytes`` wins; otherwise estimated from the static
        expansion of one iteration's iforms (as the generator emits one
        static instance per dynamic slot inside a block body).
        """
        if self.code_bytes > 0:
            return self.code_bytes
        total = 0.0
        for name, count in self.iform_counts.items():
            total += iform(name).size_bytes * count
        return int(round(total))

    def scaled(self, factor: float, name: str | None = None) -> "BlockSpec":
        """A copy with per-iteration work scaled by ``factor``."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return BlockSpec(
            name=name or self.name,
            iform_counts={k: v * factor for k, v in self.iform_counts.items()},
            iterations=self.iterations,
            code_bytes=self.code_bytes,
            mem=tuple(
                MemAccessSpec(m.wset_bytes, m.accesses * factor, m.pattern,
                              m.write_frac, m.shared_frac)
                for m in self.mem
            ),
            branches=tuple(
                BranchSpec(b.executions * factor, b.taken_rate,
                           b.transition_rate, b.static_count)
                for b in self.branches
            ),
            deps=self.deps,
            rep_elements=self.rep_elements,
        )
