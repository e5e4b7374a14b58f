"""Execution artifacts the profilers consume.

Everything here is *observable* instrumentation output — the kind of data
SystemTap probes, Intel SDE instruction logs, Valgrind cache sweeps and
perf counters actually produce. Address traces, branch outcome
histories and thread call graphs are reduced as they are collected: a
profile carries per-region working-set statistics, one branch tally and
one dependency-distance tally per service, and a table of distinct
thread call-tree shapes that each thread observation points into — not
raw samples, per-site records or per-thread trees.
Feature extraction operates exclusively on these types; the application
models never cross this boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.treedit import CallTree
from repro.hw.ir import DEP_DISTANCE_BINS
from repro.kernelsim.syscalls import SyscallInvocation
from repro.runtime.metrics import ServiceMetrics
from repro.util.errors import ConfigurationError
from repro.util.quantize import LogScaleQuantizer, bin_index
from repro.util.stats import Histogram


@dataclass(frozen=True)
class ProfilingBudget:
    """How much data the instrumentation collects per service.

    The paper notes profiling overhead occurs once and does not affect
    the collected platform-independent features; here the budget bounds
    wall-clock cost of the simulated instrumentation.
    """

    sampled_requests: int = 12
    max_accesses_per_spec: int = 1024
    max_istream_per_block: int = 4096
    branch_outcomes_per_site: int = 192
    max_sites_per_population: int = 12
    dep_samples_per_block: int = 96
    profile_duration_s: float = 0.02

    def __post_init__(self) -> None:
        if self.sampled_requests < 1:
            raise ConfigurationError("need at least one sampled request")


@dataclass(frozen=True)
class RegionStats:
    """The working-set statistics of one sampled memory region.

    The collector observes each region through a spatially-sampled
    address trace (Valgrind's role) and keeps only what feature
    extraction reads from it: the steady-state hit weight per simulated
    cache size of its side's sweep (``wset.DATA_SWEEP_SIZES`` or
    ``wset.INSTR_SWEEP_SIZES``), the real accesses the samples stand for, and three per-access
    ratios. A reuse histogram reveals less than the addresses it came
    from.
    """

    #: weight of the accesses that hit a fully-associative LRU cache of
    #: each sweep size, smallest size first
    hits: Tuple[float, ...]
    #: real accesses the sampled trace represents
    total_weight: float
    #: weighted fraction of accesses a stride prefetcher would cover
    regularity: float
    #: weighted fraction of accesses to lines a second thread touches
    #: (None when no second thread touches the region)
    shared: Optional[float]
    #: fraction of this region's accesses that are dependent (pointer-
    #: chasing) loads — the DCFG identifies dependent loads and their
    #: target addresses, so per-region attribution is observable
    chase_frac: float
    #: extent of the region in bytes (observable as the address span)
    region_bytes: float


#: a branch site's (taken exponent m, transition exponent n, dominant
#: direction taken?) on the log-scale grid 2^-1 .. 2^-10
RateBin = Tuple[int, int, bool]

_RATE_GRID = LogScaleQuantizer()


@dataclass
class BranchTally:
    """The sampled branch sites (§4.4.3), tallied.

    The branch profile needs only the execution-weighted distribution
    of each site's :data:`RateBin`, the weighted taken and transition
    rates and the total weight, summed in site order, and how many
    distinct site addresses were seen, so each site is binned and
    summed as its outcome history is measured.
    """

    rates: Histogram = field(default_factory=Histogram)
    #: sum of taken rate x weight over the sites
    taken: float = 0.0
    #: sum of transition rate x weight over the sites
    transitions: float = 0.0
    #: sum of the sites' dynamic-execution weights
    weight: float = 0.0
    #: distinct static site addresses
    static_sites: int = 0

    def add(self, taken_rate: float, transition_rate: float,
            weight: float) -> None:
        """Tally one site's measured rates and execution weight."""
        bin_: RateBin = (_RATE_GRID.quantize(taken_rate),
                         _RATE_GRID.quantize(transition_rate),
                         taken_rate >= 0.5)
        self.rates.add(bin_, weight)
        self.taken += taken_rate * weight
        self.transitions += transition_rate * weight
        self.weight += weight


@dataclass
class DepTally:
    """The sampled DCFG dependency tuples (§4.4.6), tallied.

    The dependency profile needs only how many sampled RAW/WAR/WAW
    distances fell in each :data:`~repro.hw.ir.DEP_DISTANCE_BINS` bin
    and how many samples were pointer chases, so each tuple is binned
    as it is drawn. Each kind's bins are keyed by upper edge, in the
    order each bin was first drawn.
    """

    raw: Dict[int, int] = field(default_factory=dict)
    war: Dict[int, int] = field(default_factory=dict)
    waw: Dict[int, int] = field(default_factory=dict)
    chases: int = 0
    samples: int = 0

    def add(self, raw: float, war: float, waw: float,
            pointer_chase: bool) -> None:
        """Tally one sampled ``(raw, war, waw, pointer_chase)`` tuple."""
        for bins, distance in ((self.raw, raw), (self.war, war),
                               (self.waw, waw)):
            edge = DEP_DISTANCE_BINS[bin_index(max(1.0, distance),
                                               DEP_DISTANCE_BINS)]
            bins[edge] = bins.get(edge, 0) + 1
        self.chases += int(pointer_chase)
        self.samples += 1


@dataclass(frozen=True)
class ThreadObservation:
    """One observed thread, its call tree reduced to a shape number."""

    #: index of its call tree in ``ServiceArtifacts.thread_shapes``
    shape: int
    #: connections the prober held open when it saw the thread
    connections: int
    trigger: str                    # "socket" | "timer" | "condvar" | "signal"
    #: spawned per connection, and gone before 95% of the window passed
    short_lived: bool


@dataclass
class IformStats:
    """One iform's share of the sampled instruction stream.

    The instruction-mix profile needs only these statistics of the raw
    ``(iform, rep)`` samples: how often the iform was drawn, and the
    REP element counts of its REP samples, summed in sample order (so
    their mean is the float a mean over the raw samples gives).
    """

    samples: int = 0
    rep_sum: float = 0.0
    rep_samples: int = 0


@dataclass
class ServiceArtifacts:
    """Everything the instrumentation captured for one service."""

    service: str
    #: the sampled instruction stream, reduced per iform, in the order
    #: each iform was first drawn
    instruction_table: Dict[str, IformStats] = field(default_factory=dict)
    #: total dynamic instructions per request, per sampled request
    instructions_per_request: List[float] = field(default_factory=list)
    #: data-side working-set statistics, one per touched memory region
    data_regions: List[RegionStats] = field(default_factory=list)
    #: instruction-side working-set statistics, one per code region
    instr_regions: List[RegionStats] = field(default_factory=list)
    branches: BranchTally = field(default_factory=BranchTally)
    deps: DepTally = field(default_factory=DepTally)
    #: (request sequence number, invocation), in order
    syscall_log: List[Tuple[int, SyscallInvocation]] = field(
        default_factory=list)
    #: request sequence number -> operation name (joined from tracing:
    #: the tracer tags each server span with its operation, so the
    #: instrumentation can attribute per-request streams to endpoints)
    handler_of_request: Dict[int, str] = field(default_factory=dict)
    requests_observed: int = 0
    #: the distinct call-tree shapes of the observed threads, numbered
    #: in the order each was first seen
    thread_shapes: List[CallTree] = field(default_factory=list)
    #: the observed threads, in observation order
    threads: List[ThreadObservation] = field(default_factory=list)
    counters: Optional[ServiceMetrics] = None
    observed_handler_mix: Dict[str, float] = field(default_factory=dict)
    observed_connections: int = 0
    observed_qps: float = 0.0
    #: the profiling driver kept one outstanding request per connection
    observed_closed_loop: bool = False
    #: observed RPC calls: handler -> list of (target service, target
    #: operation, req_bytes, resp_bytes, parallel_group) — from tracing,
    #: interface-level only
    rpc_calls: Dict[str, List[Tuple[str, str, float, float, Optional[int]]]] = (
        field(default_factory=dict))
    #: memory the OS reports resident for the process (RSS)
    observed_resident_bytes: float = 0.0
    #: hot text footprint reported by binary analysis (objdump/perf)
    observed_hot_code_bytes: float = 0.0
    #: sizes of files the service touched (stat() during profiling)
    file_sizes: Dict[str, float] = field(default_factory=dict)

