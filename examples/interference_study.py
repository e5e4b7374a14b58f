#!/usr/bin/env python
"""Interference study on NGINX (the Fig. 10 scenario).

The original is profiled **in isolation**, yet its clone reacts to
co-located stressors — SMT sibling spinners, L1d/L2 cache thrashers, an
LLC antagonist, a bandwidth hog — the same way the original does, because
the clone reproduces the original's resource usage patterns (§6.5).

Run:  python examples/interference_study.py
"""

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_nginx,
    run_experiment,
)
from repro.app.stressors import interference_suite, stressor


def main() -> None:
    original = Deployment.single(build_nginx())
    load = LoadSpec.open_loop(15_000)
    profiling_config = ExperimentConfig(platform=PLATFORM_A,
                                        duration_s=0.02, seed=5)
    synthetic = DittoCloner().clone(CloneRequest(
        deployment=original, load=load, config=profiling_config,
        fine_tune_tiers=True, max_tune_iterations=4)).synthetic

    scenarios = [("none", ())] + [
        (name, (stressor(name),)) for name in interference_suite()
    ]
    print(f"{'interference':<14}{'':>10}{'IPC':>8}{'l1d':>8}{'l2':>8}"
          f"{'llc':>8}{'p99 ms':>9}")
    for name, corunners in scenarios:
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.04,
                                  seed=11, corunners=tuple(corunners))
        for tag, deployment in (("actual", original),
                                ("synthetic", synthetic)):
            result = run_experiment(deployment, load, config)
            metrics = result.service("nginx")
            print(f"{name:<14}{tag:>10}{metrics.ipc:>8.3f}"
                  f"{metrics.l1d_miss_rate:>8.3f}"
                  f"{metrics.l2_miss_rate:>8.3f}"
                  f"{metrics.llc_miss_rate:>8.3f}"
                  f"{result.latency_ms(99):>9.3f}")


if __name__ == "__main__":
    main()
