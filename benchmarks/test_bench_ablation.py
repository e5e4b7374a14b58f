"""Ablations of DESIGN.md's called-out design choices.

Not a paper figure — these quantify why Ditto's knobs are set the way
they are, on the Memcached clone:

1. branch-rate quantisation depth: the paper's 2^-1..2^-10 grid vs a
   shallow 2^-1..2^-3 grid;
2. instruction-memory granularity: one block vs the Eq. 2 multi-block
   realisation;
3. fine tuning on vs off;
4. working-set realisation (Eq. 1) on vs smallest-set collapse.
"""

from dataclasses import replace

from conftest import APPS, BENCH_BUDGET, write_result

from repro.analysis import compare_metrics
from repro.app.service import Deployment, ServiceSpec
from repro.core import GeneratorConfig, fine_tune, generate_program, \
    generate_skeleton
from repro.core.features import extract_service_features
from repro.profiling import profile_deployment
from repro.runtime import run_experiment
from repro.util.stats import Histogram

METRICS = ("ipc", "branch", "l1i", "l1d", "llc")


def test_design_ablations(benchmark):
    setup = APPS["memcached"]
    original = Deployment.single(setup.builder())
    load = setup.loads["medium"]
    profile_config = setup.config(duration_s=0.02, seed=5)
    profile = profile_deployment(original, load, profile_config,
                                 budget=BENCH_BUDGET)
    artifacts = profile.artifacts("memcached")
    features = extract_service_features(artifacts)
    validation = setup.config(seed=11)
    actual = run_experiment(original, load, validation)

    def measure(variant_features, config):
        program, files = generate_program(variant_features, config)
        spec = ServiceSpec(
            name="memcached",
            skeleton=generate_skeleton(variant_features.threads,
                                       variant_features.network),
            program=program,
            request_mix=dict(variant_features.handler_mix) or None,
            files=files,
        )
        synth = run_experiment(Deployment.single(spec), load, validation)
        report = compare_metrics(actual.service("memcached"),
                                 synth.service("memcached"))
        return report

    def run_all():
        results = {}
        # Baseline: everything on, tuned.
        tuned = fine_tune(features, platform_config=profile_config,
                          max_iterations=5)
        results["baseline_tuned"] = measure(
            features, replace(GeneratorConfig(), knobs=tuned.knobs))
        results["no_tuning"] = measure(features, GeneratorConfig())
        # Shallow branch quantisation (2^-1..2^-3): a site's exponent
        # on the shallow grid is its 2^-10 exponent capped at 3.
        shallow_rates = Histogram()
        for (m, n, taken_dominant), weight in (
                features.branches.rate_distribution.counts.items()):
            shallow_rates.add((min(m, 3), min(n, 3), taken_dominant),
                              weight)
        shallow = replace(features, branches=replace(
            features.branches, rate_distribution=shallow_rates))
        results["branch_grid_2^-3"] = measure(shallow, GeneratorConfig())
        # Instruction-memory granularity: one block only.
        results["single_block"] = measure(
            features, GeneratorConfig(instruction_memory=False))
        # Working sets collapsed to 64B.
        results["no_dmem"] = measure(
            features, GeneratorConfig(data_memory=False))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [f"{'variant':<20}" + "".join(f"{m:>9}" for m in METRICS)
             + f"{'mean':>9}"]
    means = {}
    for variant, report in results.items():
        means[variant] = report.mean_error(list(METRICS))
        lines.append(
            f"{variant:<20}"
            + "".join(f"{report.error_of(m):>9.1%}" for m in METRICS)
            + f"{means[variant]:>9.1%}")
    write_result("ablation_design_choices", "\n".join(lines))

    # Each ablated design choice costs accuracy on its paired metric.
    assert (results["branch_grid_2^-3"].error_of("branch")
            >= results["no_tuning"].error_of("branch") - 0.02)
    assert (results["single_block"].error_of("l1i")
            > results["no_tuning"].error_of("l1i"))
    assert (results["no_dmem"].error_of("llc")
            > results["no_tuning"].error_of("llc"))
    assert (results["no_dmem"].error_of("l1d")
            > results["no_tuning"].error_of("l1d"))
    # Tuning never hurts the overall mean much and usually helps.
    assert means["baseline_tuned"] <= means["no_tuning"] + 0.02
