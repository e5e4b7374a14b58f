"""Ditto's profiling toolchain (the SystemTap/Valgrind/SDE/Perf stand-ins).

The collector runs the target deployment under a representative load and
produces *execution artifacts* per service — an instruction-mix table,
per-region data and instruction working-set statistics, per-site branch
rates, dependency-distance tallies, syscall logs, thread observations,
performance counters — plus the RPC topology its traces reduce to.
Address traces, branch outcome histories and spans are reduced as they
are collected, so a profile ships statistics, not raw samples. Feature
extractors then turn artifacts into the platform-independent feature set
the generator consumes (§4.4).

The extractors never see the application models — only the artifacts —
so the reconstruction carries genuine sampling and quantisation error,
which the fine-tuner (§4.5) subsequently reduces.
"""

from repro.profiling.artifacts import (
    BranchSiteTrace,
    DepTally,
    ProfilingBudget,
    RegionStats,
    ServiceArtifacts,
    ThreadObservation,
)
from repro.profiling.collector import ApplicationProfile, profile_deployment
from repro.profiling.instmix import InstructionMixProfile, profile_instruction_mix
from repro.profiling.branches import BranchProfile, profile_branches
from repro.profiling.wset import (
    WorkingSetProfile,
    invert_data_hits,
    invert_instruction_hits,
    profile_working_sets,
)
from repro.profiling.deps import DependencyDistanceProfile, profile_dependencies
from repro.profiling.syscalls import SyscallProfile, profile_syscalls
from repro.profiling.threads import ThreadModelProfile, profile_thread_model
from repro.profiling.netmodel import NetworkModelProfile, profile_network_model

__all__ = [
    "ApplicationProfile",
    "BranchProfile",
    "BranchSiteTrace",
    "DepTally",
    "DependencyDistanceProfile",
    "InstructionMixProfile",
    "NetworkModelProfile",
    "ProfilingBudget",
    "RegionStats",
    "ServiceArtifacts",
    "SyscallProfile",
    "ThreadModelProfile",
    "ThreadObservation",
    "WorkingSetProfile",
    "invert_data_hits",
    "invert_instruction_hits",
    "profile_branches",
    "profile_dependencies",
    "profile_deployment",
    "profile_instruction_mix",
    "profile_network_model",
    "profile_syscalls",
    "profile_thread_model",
    "profile_working_sets",
]
