#!/usr/bin/env python
"""Quickstart: clone Memcached and validate the clone.

The one-screen tour of the public API:

1. build the original application model (the paper's Memcached config);
2. run Ditto with telemetry on: profile -> generate -> fine-tune;
3. run original and clone side by side and compare the paper's metrics;
4. peek at the shareable synthetic assembly listing;
5. print the telemetry report and save the run + Chrome trace.

Run:  python examples/quickstart.py
"""

import os

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
    emit_assembly,
    run_experiment,
)
from repro.analysis import compare_metrics
from repro.telemetry import Telemetry


def main() -> None:
    # 1. The original service (we could never share its internals).
    original = Deployment.single(build_memcached())

    # 2. Clone it: profile once at medium load on platform A. The
    #    telemetry session observes every pipeline stage (and, below,
    #    the validation runs) without perturbing the clone.
    profiling_load = LoadSpec.open_loop(qps=100_000)
    profiling_config = ExperimentConfig(platform=PLATFORM_A,
                                        duration_s=0.02, seed=5)
    telemetry = Telemetry(label="quickstart: memcached clone")
    cloner = DittoCloner(telemetry=telemetry)
    result = cloner.clone(CloneRequest(deployment=original,
                                       load=profiling_load,
                                       config=profiling_config,
                                       fine_tune_tiers=True,
                                       max_tune_iterations=6))
    synthetic, report = result.synthetic, result.report
    tuning = report.tuning["memcached"]
    print(f"fine-tuning: {tuning.iterations} iterations, "
          f"final mean error {tuning.mean_error:.1%} "
          f"(converged={tuning.converged})")
    print(f"pipeline: executor={report.executor}, "
          f"cache hits/misses={report.cache_stats.hits}"
          f"/{report.cache_stats.misses}")

    # 3. Validate: run both at the same load and compare counters (the
    #    `with telemetry:` block records these runs on the sim timeline
    #    alongside the profiling run).
    validation = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                                  seed=11)
    with telemetry:
        actual = run_experiment(original, profiling_load, validation)
        synth = run_experiment(synthetic, profiling_load, validation)
    comparison = compare_metrics(actual.service("memcached"),
                                 synth.service("memcached"))
    print()
    print(comparison.table())
    print()
    print(f"{'':16}{'actual':>14}{'synthetic':>14}")
    print(f"{'p99 latency ms':<16}{actual.latency_ms(99):>14.3f}"
          f"{synth.latency_ms(99):>14.3f}")
    print(f"{'net MB/s':<16}"
          f"{actual.net_bandwidth('memcached') / 1e6:>14.1f}"
          f"{synth.net_bandwidth('memcached') / 1e6:>14.1f}")
    print(f"{'throughput':<16}{actual.throughput:>14.0f}"
          f"{synth.throughput:>14.0f}")

    # 4. The artifact you could actually publish.
    listing = emit_assembly(synthetic.services["memcached"].program)
    print("\n--- synthetic assembly listing (first 40 lines) ---")
    print("\n".join(listing.splitlines()[:40]))

    # 5. Where did the time go? The telemetry session summarizes the
    #    pipeline stages, cache effectiveness, and the sim timeline,
    #    and exports a Perfetto-loadable Chrome trace.
    print("\n--- telemetry ---")
    print(telemetry.report_table())
    out_dir = os.environ.get("DITTO_TELEMETRY_DIR", ".")
    run_path = telemetry.save(os.path.join(out_dir, "quickstart_run.json"))
    trace_path = telemetry.write_chrome_trace(
        os.path.join(out_dir, "quickstart_trace.json"))
    print(f"\nsaved run -> {run_path} "
          f"(summarize: python -m repro.telemetry.report {run_path})")
    print(f"chrome trace -> {trace_path} (open in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
