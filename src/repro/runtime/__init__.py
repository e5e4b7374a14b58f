"""Execution runtime: runs deployments on simulated platforms.

The runtime binds an application model (service specs), a hardware
platform (analytical core + caches + devices), the kernel substrate
(syscalls, VFS, NICs, scheduling) and a load generator into a
discrete-event simulation, producing the measurements the paper reports:
per-service performance counters (IPC, miss rates, branch mispredictions,
top-down breakdown), network/disk bandwidth, and latency percentiles.

Both the original applications and Ditto's synthetic clones run through
this same runtime — differences in results come only from how faithfully
the clone's program reconstructs the original's characteristics.
"""

from repro.runtime.metrics import RunResult, ServiceMetrics
from repro.runtime.pricing import BlockPricer, PricingKey
from repro.runtime.experiment import ExperimentConfig, run_experiment, sweep_load
from repro.runtime.expcache import CacheStats, ExperimentCache
from repro.runtime.resilience import CircuitBreaker, ResilienceConfig, RetryPolicy

__all__ = [
    "BlockPricer",
    "CacheStats",
    "CircuitBreaker",
    "ExperimentCache",
    "ExperimentConfig",
    "PricingKey",
    "ResilienceConfig",
    "RetryPolicy",
    "RunResult",
    "ServiceMetrics",
    "run_experiment",
    "sweep_load",
]
