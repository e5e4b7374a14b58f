"""Execution artifacts the profilers consume.

Everything here is *observable* instrumentation output — the kind of data
SystemTap probes, Intel SDE instruction logs, Valgrind cache sweeps and
perf counters actually produce. Address traces and branch outcome
histories are reduced as they are collected: a profile carries per-region
working-set statistics, per-site branch rates and dependency-distance
tallies, not raw samples.
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
from repro.util.quantize import bin_index


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


@dataclass(frozen=True)
class BranchSiteTrace:
    """The outcome statistics of one static conditional-branch site."""

    pc: int
    #: fraction of taken outcomes in the site's observed history
    taken_rate: float
    #: fraction of direction changes between consecutive executions
    transition_rate: float
    executions_weight: float       # total dynamic executions it represents


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


@dataclass
class ThreadObservation:
    """One observed thread: call graph plus kernel-event evidence."""

    thread_id: int
    call_tree: CallTree
    spawned_by_clone: bool
    lifetime_fraction: float        # lifetime / observation window
    wakeup_trigger: str             # "socket" | "timer" | "condvar" | "signal"
    connections_at_observation: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lifetime_fraction <= 1.0:
            raise ConfigurationError("lifetime_fraction must be in [0, 1]")


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
    branch_sites: List[BranchSiteTrace] = field(default_factory=list)
    deps: DepTally = field(default_factory=DepTally)
    #: (request sequence number, invocation), in order
    syscall_log: List[Tuple[int, SyscallInvocation]] = field(
        default_factory=list)
    #: request sequence number -> operation name (joined from tracing:
    #: the tracer tags each server span with its operation, so the
    #: instrumentation can attribute per-request streams to endpoints)
    handler_of_request: Dict[int, str] = field(default_factory=dict)
    requests_observed: int = 0
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

