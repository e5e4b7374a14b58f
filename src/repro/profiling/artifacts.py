"""Raw execution artifacts the profilers consume.

Everything here is *observable* instrumentation output — the kind of data
SystemTap probes, Intel SDE instruction logs, Valgrind address traces and
perf counters actually produce. Feature extraction operates exclusively
on these types; the application models never cross this boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.treedit import CallTree
from repro.kernelsim.syscalls import SyscallInvocation
from repro.runtime.metrics import ServiceMetrics
from repro.util.errors import ConfigurationError


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


@dataclass
class RegionTrace:
    """A spatially-sampled address trace over one memory region.

    Large regions are observed through a 1-in-``line_sample_factor``
    sample of their cache lines (the set-sampling technique production
    working-set profilers use to bound trace volume): reuse distances
    measured on the sampled lines multiply by the factor to estimate true
    stack distances, and each access's ``weight`` says how many real
    accesses it represents.
    """

    addresses: np.ndarray
    weights: np.ndarray
    line_sample_factor: float = 1.0
    #: a second thread's view of the same region (shared-data detection)
    thread2_addresses: Optional[np.ndarray] = None
    #: extent of the region in bytes (observable as the address span)
    region_bytes: float = 0.0
    #: fraction of this region's accesses that are dependent (pointer-
    #: chasing) loads — the DCFG identifies dependent loads and their
    #: target addresses, so per-region attribution is observable
    chase_frac: float = 0.0

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.weights):
            raise ConfigurationError("addresses/weights must align")
        if self.line_sample_factor < 1.0:
            raise ConfigurationError("line_sample_factor must be >= 1")

    @property
    def total_weight(self) -> float:
        """Real accesses this trace represents."""
        return float(np.sum(self.weights))


@dataclass
class BranchSiteTrace:
    """Outcome history of one static conditional-branch site."""

    pc: int
    outcomes: np.ndarray           # bool array
    executions_weight: float       # total dynamic executions it represents

    @property
    def taken_rate(self) -> float:
        """Observed fraction of taken outcomes."""
        if len(self.outcomes) == 0:
            return 0.0
        return float(np.mean(self.outcomes))

    @property
    def transition_rate(self) -> float:
        """Observed fraction of direction changes between executions."""
        if len(self.outcomes) < 2:
            return 0.0
        return float(np.mean(self.outcomes[1:] != self.outcomes[:-1]))


@dataclass(frozen=True)
class DepSample:
    """One sampled dependency tuple from the DCFG (§4.4.6)."""

    raw: float
    war: float
    waw: float
    pointer_chase: bool


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
    #: data-side address traces, one per touched memory region
    data_regions: List["RegionTrace"] = field(default_factory=list)
    #: instruction-side address traces, one per code region
    instr_regions: List["RegionTrace"] = field(default_factory=list)
    branch_sites: List[BranchSiteTrace] = field(default_factory=list)
    dep_samples: List[DepSample] = field(default_factory=list)
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



# --------------------------------------------------------------------- #
# persistence (digest-stamped envelopes)
# --------------------------------------------------------------------- #
#: schema name stamped into persisted ServiceArtifacts envelopes
ARTIFACTS_SCHEMA = "service-artifacts"
#: payload schema version (bump when the dataclass layout changes;
#: files of any other version are misses)
ARTIFACTS_VERSION = 2


def save_artifacts(path: str, artifacts: ServiceArtifacts) -> str:
    """Persist one service's artifacts atomically, digest-stamped.

    Profiling a real deployment is the expensive half of a clone run;
    saving its artifacts lets a later session re-clone (or re-validate)
    without re-profiling. The envelope format detects truncation and
    bit-rot on load instead of feeding damaged traces to the generator.
    """
    from repro.validation import integrity

    return integrity.save_object(path, artifacts, schema=ARTIFACTS_SCHEMA,
                                 version=ARTIFACTS_VERSION)
