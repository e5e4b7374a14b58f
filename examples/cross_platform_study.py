#!/usr/bin/env python
"""Cross-platform portability study (the Fig. 7 scenario).

Profiles Memcached and Redis **on platform A only**, then runs original
and clone on platforms A, B and C. The point (§6.2.2): the clone is built
from platform-independent features, so it reacts to the platform change —
smaller L2s, older cores, slower disks — the same way the original does,
with no reprofiling.

Run:  python examples/cross_platform_study.py
"""

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    PLATFORM_B,
    PLATFORM_C,
    build_memcached,
    build_redis,
    run_experiment,
)

PLATFORMS = (PLATFORM_A, PLATFORM_B, PLATFORM_C)
APPS = {
    "memcached": (build_memcached, LoadSpec.open_loop(60_000)),
    "redis": (build_redis, LoadSpec.closed_loop(4)),
}


def main() -> None:
    for name, (builder, load) in APPS.items():
        original = Deployment.single(builder())
        profiling_config = ExperimentConfig(platform=PLATFORM_A,
                                            duration_s=0.02, seed=5)
        synthetic = DittoCloner().clone(CloneRequest(
            deployment=original, load=load, config=profiling_config,
            fine_tune_tiers=True, max_tune_iterations=4)).synthetic
        print(f"\n=== {name} (profiled on A only) ===")
        print(f"{'platform':<10}{'':>10}{'IPC':>8}{'branch':>8}"
              f"{'l1i':>8}{'l2':>8}{'llc':>8}{'p99 ms':>9}")
        for platform in PLATFORMS:
            config = ExperimentConfig(platform=platform, duration_s=0.04,
                                      seed=11)
            for tag, deployment in (("actual", original),
                                    ("synthetic", synthetic)):
                result = run_experiment(deployment, load, config)
                metrics = result.service(name)
                print(f"{platform.name:<10}{tag:>10}"
                      f"{metrics.ipc:>8.3f}"
                      f"{metrics.branch_mispredict_rate:>8.3f}"
                      f"{metrics.l1i_miss_rate:>8.3f}"
                      f"{metrics.l2_miss_rate:>8.3f}"
                      f"{metrics.llc_miss_rate:>8.3f}"
                      f"{result.latency_ms(99):>9.3f}")


if __name__ == "__main__":
    main()
