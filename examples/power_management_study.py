#!/usr/bin/env python
"""Power-management study with a synthetic Memcached (the Fig. 11 scenario).

A cloud provider wants to know which (core count, frequency) settings
keep Memcached under a 1 ms p99 QoS — without giving the hardware vendor
its source. The vendor runs the *clone* across the DVFS grid; cells the
clone marks infeasible match the original's.

Run:  python examples/power_management_study.py
"""

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
    run_experiment,
)

QOS_MS = 1.0
LOAD = LoadSpec.open_loop(230_000)
CORES = (4, 8, 12, 16)
FREQUENCIES = (1.1, 1.5, 1.9, 2.1)


def heatmap(deployment) -> dict:
    cells = {}
    for cores in CORES:
        for freq in FREQUENCIES:
            config = ExperimentConfig(
                platform=PLATFORM_A, duration_s=0.03, seed=11,
                cores=cores, frequency_ghz=freq,
            )
            result = run_experiment(deployment, LOAD, config)
            cells[(cores, freq)] = result.latency_ms(99)
    return cells


def render(title: str, cells: dict) -> None:
    print(f"\n{title}  (p99 ms; X = misses the {QOS_MS} ms QoS)")
    header = "".join(f"{c:>9}" for c in CORES)
    print(f"{'GHz/cores':<10}{header}")
    for freq in FREQUENCIES:
        row = ""
        for cores in CORES:
            value = cells[(cores, freq)]
            mark = "X" if value > QOS_MS else " "
            row += f"{value:>8.2f}{mark}"
        print(f"{freq:<10}{row}")


def main() -> None:
    original = Deployment.single(build_memcached(worker_threads=16))
    profiling_config = ExperimentConfig(platform=PLATFORM_A,
                                        duration_s=0.02, seed=5)
    synthetic = DittoCloner().clone(CloneRequest(
        deployment=original, load=LoadSpec.open_loop(100_000),
        config=profiling_config, fine_tune_tiers=True,
        max_tune_iterations=4)).synthetic
    actual_cells = heatmap(original)
    synth_cells = heatmap(synthetic)
    render("actual Memcached", actual_cells)
    render("synthetic Memcached", synth_cells)
    agreements = sum(
        (actual_cells[key] > QOS_MS) == (synth_cells[key] > QOS_MS)
        for key in actual_cells
    )
    print(f"\nQoS-feasibility agreement: {agreements}/{len(actual_cells)} "
          "grid cells")


if __name__ == "__main__":
    main()
