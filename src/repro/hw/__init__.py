"""Hardware substrate: caches, branch prediction, core model, platforms.

The CPU model is *analytical*: given a basic block's instruction mix,
memory-access specs, branch specs and dependency profile, it computes
cycles and performance-counter values the way llvm-mca/top-down analysis
would, using per-microarchitecture port/latency tables. Cache and branch
behaviour come from explicit simulators (used by the Valgrind-/SDE-like
profilers) and matching closed forms (used for fast runtime timing).
"""

from repro.hw.cache import CacheConfig, CacheHierarchy, SetAssociativeCache
from repro.hw.branch import BranchPredictorModel, GsharePredictor
from repro.hw.core import BlockTiming, CoreModel, ExecutionContext
from repro.hw.ir import (
    BlockSpec,
    BranchSpec,
    DependencyProfile,
    MemAccessSpec,
    MemPattern,
)
from repro.hw.platform import (
    PLATFORM_A,
    PLATFORM_B,
    PLATFORM_C,
    DiskSpec,
    NetworkSpec,
    PlatformSpec,
    load_platform_spec,
    platform_by_name,
    platform_from_dict,
    platform_to_dict,
    register_platform,
)
from repro.hw.topdown import TopDownBreakdown

__all__ = [
    "BlockSpec",
    "BlockTiming",
    "BranchPredictorModel",
    "BranchSpec",
    "CacheConfig",
    "CacheHierarchy",
    "CoreModel",
    "DependencyProfile",
    "DiskSpec",
    "ExecutionContext",
    "GsharePredictor",
    "MemAccessSpec",
    "MemPattern",
    "NetworkSpec",
    "PLATFORM_A",
    "PLATFORM_B",
    "PLATFORM_C",
    "PlatformSpec",
    "SetAssociativeCache",
    "TopDownBreakdown",
    "load_platform_spec",
    "platform_by_name",
    "platform_from_dict",
    "platform_to_dict",
    "register_platform",
]
