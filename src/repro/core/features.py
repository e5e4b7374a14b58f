"""The platform-independent feature set (§4.1's "Abstraction" output).

:func:`extract_service_features` runs every profiler over one service's
artifacts and bundles the results. This bundle — not the artifacts, and
certainly not the original application model — is what the generator
consumes, and it is what an application owner would actually share: a
skeleton plus post-processed statistical characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import iform
from repro.profiling.artifacts import RegionStats, ServiceArtifacts
from repro.profiling.branches import BranchProfile, profile_branches
from repro.profiling.deps import (
    DependencyDistanceProfile,
    profile_dependencies,
)
from repro.profiling.instmix import InstructionMixProfile, profile_instruction_mix
from repro.profiling.netmodel import NetworkModelProfile, profile_network_model
from repro.profiling.syscalls import SyscallProfile, profile_syscalls
from repro.profiling.threads import ThreadModelProfile, profile_thread_model
from repro.profiling.wset import (
    DATA_SWEEP_SIZES,
    INSTR_SWEEP_SIZES,
    WorkingSetProfile,
    invert_data_hits,
    invert_instruction_hits,
)
from repro.runtime.metrics import ServiceMetrics
from repro.util.errors import ProfilingError


@dataclass
class ServiceFeatures:
    """Everything Ditto learned about one service."""

    service: str
    mix: InstructionMixProfile
    branches: BranchProfile
    deps: DependencyDistanceProfile
    syscalls: SyscallProfile
    threads: ThreadModelProfile
    network: NetworkModelProfile
    #: per-request data accesses per power-of-two working set (Eq. 1)
    data_wsets: Dict[int, float]
    #: per-request dynamic executions per instruction working set (Eq. 2)
    instr_wsets: Dict[int, float]
    regular_ratio: float
    #: regularity restricted to large (>512KB) regions — what the
    #: prefetcher can actually hide on the capacity-miss path
    regular_ratio_large: float
    #: dependent-load fraction among large-region accesses
    chase_ratio_large: float
    shared_ratio: float
    write_frac: float
    handler_mix: Dict[str, float]
    rpc_calls: Dict[str, List[Tuple[str, str, float, float, Optional[int]]]]
    resident_bytes: float
    hot_code_bytes: float
    file_sizes: Dict[str, float]
    target_counters: Optional[ServiceMetrics] = None
    observed_qps: float = 0.0
    observed_connections: int = 0
    observed_closed_loop: bool = False

    def instructions_per_request(self, handler: Optional[str] = None) -> float:
        """Target dynamic user instructions per request."""
        if handler is not None:
            value = self.mix.instructions_per_request_by_handler.get(handler)
            if value is not None:
                return value
        return self.mix.instructions_per_request


def _write_fraction(mix: InstructionMixProfile) -> float:
    """Store fraction among memory-touching instructions."""
    stores = 0.0
    memory = 0.0
    for name, prob in mix.mix.normalized().items():
        form = iform(str(name))
        if form.uses_memory:
            memory += prob
            if form.writes_mem:
                stores += prob
    if memory <= 0:
        return 0.0
    return stores / memory


LARGE_REGION_BYTES = 512 * 1024


def _sweep(regions: List[RegionStats],
           sizes: Tuple[int, ...]) -> WorkingSetProfile:
    """H(s) over one side's regions, summed region by region."""
    if not regions:
        raise ProfilingError("no regions to sweep")
    hits = [0.0] * len(sizes)
    total = 0.0
    for region in regions:
        total += region.total_weight
        for index, hit in enumerate(region.hits):
            hits[index] += hit
    return WorkingSetProfile(sizes=list(sizes), hits=hits,
                             total_weight=total)


def _weighted_mean(regions: List[RegionStats],
                   value: Callable[[RegionStats], float],
                   min_region_bytes: float = 0.0) -> float:
    """Access-weighted mean of a per-region ratio over the regions of at
    least ``min_region_bytes`` (0.0 when they carry no weight)."""
    num = 0.0
    den = 0.0
    for region in regions:
        if region.region_bytes < min_region_bytes:
            continue
        num += value(region) * region.total_weight
        den += region.total_weight
    if den <= 0:
        return 0.0
    return num / den


def extract_service_features(artifacts: ServiceArtifacts) -> ServiceFeatures:
    """Run all feature extractors over one service's artifacts."""
    mix = profile_instruction_mix(artifacts)
    branches = profile_branches(artifacts)
    deps = profile_dependencies(artifacts)
    syscalls = profile_syscalls(artifacts)
    threads = profile_thread_model(artifacts)
    network = profile_network_model(artifacts)
    requests = max(1, artifacts.requests_observed)
    data = artifacts.data_regions
    data_sweep = _sweep(data, DATA_SWEEP_SIZES)
    instr_sweep = _sweep(artifacts.instr_regions, INSTR_SWEEP_SIZES)
    # The generator distinguishes the regularity of large (capacity-
    # missing) working sets from small (cache-resident) ones, since only
    # the former shapes memory-level behaviour.
    regularity = attrgetter("regularity")
    regular_ratio_large = (
        _weighted_mean(data, regularity, LARGE_REGION_BYTES)
        or _weighted_mean(data, regularity))
    data_wsets = {
        size: accesses / requests
        for size, accesses in invert_data_hits(data_sweep).items()
    }
    instr_wsets = {
        size: execs / requests
        for size, execs in invert_instruction_hits(instr_sweep).items()
    }
    return ServiceFeatures(
        service=artifacts.service,
        mix=mix,
        branches=branches,
        deps=deps,
        syscalls=syscalls,
        threads=threads,
        network=network,
        data_wsets=data_wsets,
        instr_wsets=instr_wsets,
        regular_ratio=_weighted_mean(data, regularity),
        regular_ratio_large=regular_ratio_large,
        chase_ratio_large=_weighted_mean(
            data, attrgetter("chase_frac"), LARGE_REGION_BYTES),
        shared_ratio=_weighted_mean(
            data, lambda region: region.shared or 0.0),
        write_frac=_write_fraction(mix),
        handler_mix=dict(artifacts.observed_handler_mix),
        rpc_calls=dict(artifacts.rpc_calls),
        resident_bytes=artifacts.observed_resident_bytes,
        hot_code_bytes=artifacts.observed_hot_code_bytes,
        file_sizes=dict(artifacts.file_sizes),
        target_counters=artifacts.counters,
        observed_qps=artifacts.observed_qps,
        observed_connections=artifacts.observed_connections,
        observed_closed_loop=artifacts.observed_closed_loop,
    )
