"""Ditto (ASPLOS 2023) reproduction: end-to-end application cloning for
networked cloud services, on a fully simulated system stack.

Top-level convenience exports — the typical flow:

>>> from repro import (CloneRequest, Deployment, DittoCloner,
...                    ExperimentConfig, LoadSpec, PLATFORM_A,
...                    build_memcached)
>>> original = Deployment.single(build_memcached())
>>> request = CloneRequest(
...     deployment=original, load=LoadSpec.open_loop(100_000),
...     config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02),
...     max_tune_iterations=6)
>>> result = DittoCloner().clone(request)   # doctest: +SKIP

Every option that shapes the clone (seed, profiling budget, tuning,
generator, fidelity gate, remediation) sits on the request;
:class:`DittoCloner` takes only infrastructure (executor, workers,
checkpoints, telemetry), none of which changes the clone.
>>> synthetic, report = result.synthetic, result.report  # doctest: +SKIP

Many clones at once go through the fleet control plane instead
(:class:`~repro.fleet.FleetClient`, or ``python -m repro.fleet`` from a
shell) — same :class:`CloneRequest`, plus a persistent job store,
scheduler, and per-job lifecycle.

Subpackages, bottom-up:

- :mod:`repro.util` — rng/statistics/quantisation helpers
- :mod:`repro.sim` — discrete-event simulation engine
- :mod:`repro.isa` — x86-flavoured instruction-set model
- :mod:`repro.hw` — caches, branch prediction, analytical OoO core,
  platforms A/B/C, contention
- :mod:`repro.kernelsim` — syscalls, VFS/page cache, NICs,
  scheduling
- :mod:`repro.app` — application models (the paper's six workloads)
- :mod:`repro.loadgen` — open/closed-loop drivers
- :mod:`repro.tracing` — distributed tracing + dependency graphs
- :mod:`repro.runtime` — runs deployments, produces counters/latency
- :mod:`repro.profiling` — the SystemTap/SDE/Valgrind-like toolchain
- :mod:`repro.analysis` — tree-edit distance, clustering, error reports
- :mod:`repro.core` — Ditto itself: feature extraction, generators,
  fine tuning, the cloner, and the assembly emitter
- :mod:`repro.validation` — fidelity gates, artifact integrity,
  self-healing remediation (``python -m repro.validation`` gates a
  saved bundle)
- :mod:`repro.fleet` — the cloning control plane: persistent job
  store, scheduler, ``python -m repro.fleet`` CLI
"""

from repro.app.service import Deployment
from repro.app.workloads import (
    build_memcached,
    build_mongodb,
    build_nginx,
    build_redis,
    build_social_network,
    social_network_deployment,
)
from repro.core import (
    CloneRequest,
    CloneResult,
    DittoCloner,
    GeneratorConfig,
    emit_assembly,
)
from repro.faults import (
    CpuStealFault,
    DiskErrorFault,
    DiskSlowdownFault,
    FaultPlan,
    FaultWindow,
    LatencySpikeFault,
    NodeCrashFault,
    PacketLossFault,
)
from repro.fleet import ChaosPlan, CloneJobSpec, FleetClient, JobState
from repro.hw import PLATFORM_A, PLATFORM_B, PLATFORM_C, platform_by_name
from repro.loadgen import LoadSpec
from repro.runtime import (
    ExperimentCache,
    ExperimentConfig,
    ResilienceConfig,
    RetryPolicy,
    RunResult,
    run_experiment,
)
from repro.util.errors import (
    ArtifactIntegrityError,
    FidelityGateError,
    SimBudgetExceededError,
)
from repro.validation import (
    FidelityGate,
    FidelityReport,
    RemediationPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "ArtifactIntegrityError",
    "CloneJobSpec",
    "CloneRequest",
    "CloneResult",
    "ChaosPlan",
    "CpuStealFault",
    "Deployment",
    "DiskErrorFault",
    "DiskSlowdownFault",
    "DittoCloner",
    "ExperimentCache",
    "ExperimentConfig",
    "FaultPlan",
    "FaultWindow",
    "FidelityGate",
    "FidelityGateError",
    "FidelityReport",
    "FleetClient",
    "GeneratorConfig",
    "JobState",
    "LatencySpikeFault",
    "LoadSpec",
    "NodeCrashFault",
    "RemediationPolicy",
    "SimBudgetExceededError",
    "PLATFORM_A",
    "PLATFORM_B",
    "PLATFORM_C",
    "PacketLossFault",
    "ResilienceConfig",
    "RetryPolicy",
    "RunResult",
    "build_memcached",
    "build_mongodb",
    "build_nginx",
    "build_redis",
    "build_social_network",
    "emit_assembly",
    "platform_by_name",
    "run_experiment",
    "social_network_deployment",
]
