#!/usr/bin/env python
"""Clone the 14-tier Social Network end to end (the Fig. 6 scenario).

Ditto first reconstructs the RPC dependency DAG from distributed traces,
then clones every tier (skeleton + body), producing a synthetic
deployment in which *every individual microservice has been replaced*.
The end-to-end latency of the synthetic graph tracks the original across
a QPS sweep.

Run:  python examples/social_network_cloning.py
"""

from repro import (
    CloneRequest,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    run_experiment,
    social_network_deployment,
)
from repro.profiling import ProfilingBudget


def main() -> None:
    original = social_network_deployment()
    profiling_load = LoadSpec.open_loop(qps=1000)
    profiling_config = ExperimentConfig(platform=PLATFORM_A,
                                        duration_s=0.05, seed=5)
    # Per-tier fine tuning is disabled to keep the example fast; the
    # structural clone already tracks end-to-end behaviour well.
    result = DittoCloner().clone(CloneRequest(
        deployment=original, load=profiling_load, config=profiling_config,
        fine_tune_tiers=False,
        budget=ProfilingBudget(sampled_requests=8,
                               profile_duration_s=0.05)))
    synthetic, report = result.synthetic, result.report

    topology = report.topology
    print(f"reconstructed topology: {topology.tier_count} tiers, "
          f"entry = {topology.entry_service}")
    slowest = max(report.tier_seconds.items(), key=lambda kv: kv[1])
    print(f"pipeline: executor={report.executor}; slowest tier "
          f"{slowest[0]} ({slowest[1]:.2f}s of "
          f"{sum(report.tier_seconds.values()):.2f}s total tier work)")
    for src, dst, calls in sorted(topology.edges):
        print(f"  {src} -> {dst} ({calls} calls observed)")

    print("\nend-to-end latency, original vs synthetic (every tier "
          "replaced):")
    print(f"{'QPS':>6}{'actual p50':>12}{'synth p50':>12}"
          f"{'actual p99':>12}{'synth p99':>12}")
    for qps in (400, 800, 1200, 1600, 2000):
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                                  seed=11)
        actual = run_experiment(original, LoadSpec.open_loop(qps), config)
        synth = run_experiment(synthetic, LoadSpec.open_loop(qps), config)
        print(f"{qps:>6}"
              f"{actual.latency_ms(50):>12.2f}{synth.latency_ms(50):>12.2f}"
              f"{actual.latency_ms(99):>12.2f}{synth.latency_ms(99):>12.2f}")

    print("\nper-tier counters at 1000 QPS (the paper's featured tiers):")
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05, seed=11)
    actual = run_experiment(original, LoadSpec.open_loop(1000), config)
    synth = run_experiment(synthetic, LoadSpec.open_loop(1000), config)
    print(f"{'tier':<24}{'':>10}{'IPC':>8}{'l1i':>8}{'llc':>8}")
    for tier in ("text-service", "social-graph-service"):
        for tag, result in (("actual", actual), ("synthetic", synth)):
            metrics = result.service(tier)
            print(f"{tier:<24}{tag:>10}{metrics.ipc:>8.3f}"
                  f"{metrics.l1i_miss_rate:>8.3f}"
                  f"{metrics.llc_miss_rate:>8.3f}")


if __name__ == "__main__":
    main()
