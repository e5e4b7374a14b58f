"""Fidelity-gate pass-rate matrix: six workloads x platforms A, B, C.

Every clone is profiled (and, for the single-tier apps, fine-tuned) on
platform A at medium load; original and synthetic then replay side by
side on all three platforms and each pair is scored by a
:class:`~repro.validation.FidelityGate` with the paper's default
tolerances (the §6 error envelope). The matrix reports, per cell, the
gate verdict and how many per-metric checks passed.

Expected shape: the profiled platform (A) passes cleanly; B and C trade
a few checks — mostly in the cache hierarchy, where the smaller L2/LLC
shift miss rates the knobs were not tuned against — which is exactly
the drift the gate exists to flag.
"""

from conftest import (
    APPS,
    BENCH_BUDGET,
    PROFILE_SECONDS,
    RUN_SECONDS,
    SOCIALNET_LOADS,
    write_result,
)

from repro.app.workloads.asyncgw import async_gateway_deployment
from repro.core import CloneRequest, DittoCloner
from repro.hw import PLATFORM_A, PLATFORM_B, PLATFORM_C
from repro.loadgen import LoadSpec
from repro.runtime import ExperimentConfig, run_experiment
from repro.validation import FidelityGate

PLATFORMS = (PLATFORM_A, PLATFORM_B, PLATFORM_C)

ASYNCGW_LOAD = LoadSpec.open_loop(3_000)


def _gateway_clone():
    original = async_gateway_deployment()
    config = ExperimentConfig(platform=PLATFORM_A,
                              duration_s=PROFILE_SECONDS, seed=5)
    result = DittoCloner().clone(CloneRequest(
        deployment=original, load=ASYNCGW_LOAD, config=config,
        fine_tune_tiers=False, budget=BENCH_BUDGET))
    return original, result.synthetic, result.report


def test_validation_gate_matrix(benchmark, single_tier_clones,
                                socialnet_clone):
    gate = FidelityGate()
    workloads = {}
    for name, setup in APPS.items():
        original, synthetic, _report = single_tier_clones[name]
        workloads[name] = (original, synthetic, setup.loads["medium"],
                           setup.page_cache_bytes)
    sn_original, sn_synthetic, _ = socialnet_clone
    workloads["socialnetwork"] = (sn_original, sn_synthetic,
                                  SOCIALNET_LOADS["medium"], None)
    gw_original, gw_synthetic, _ = _gateway_clone()
    workloads["asyncgateway"] = (gw_original, gw_synthetic,
                                 ASYNCGW_LOAD, None)

    def run_matrix():
        reports = {}
        for name, (original, synthetic, load, cache) in workloads.items():
            for platform in PLATFORMS:
                config = ExperimentConfig(
                    platform=platform, duration_s=RUN_SECONDS, seed=11,
                    page_cache_bytes=cache)
                baseline = run_experiment(original, load, config)
                replay = run_experiment(synthetic, load, config)
                reports[(name, platform.name)] = gate.compare_runs(
                    baseline, replay, label=name,
                    platform=platform.name, seed=11)
        return reports

    reports = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    lines = [f"{'workload':<15}"
             + "".join(f"{p.name:>20}" for p in PLATFORMS)]
    for name in workloads:
        row = [f"{name:<15}"]
        for platform in PLATFORMS:
            report = reports[(name, platform.name)]
            passed = sum(1 for c in report.checks if c.passed)
            verdict = "PASS" if report.passed else "fail"
            row.append(f"{verdict} {passed:>2}/{len(report.checks):<2}"
                       f" e={report.mean_error:4.2f}".rjust(20))
        lines.append("".join(row))
    failures = sorted(
        {check.metric
         for report in reports.values()
         for check in report.failures()})
    lines.append(f"failing metrics anywhere: {failures or 'none'}")
    write_result("validation_gate_matrix", "\n".join(lines))

    # The profiled platform is the paper's headline claim: every tuned
    # single-tier clone must clear the full gate on platform A.
    for name in APPS:
        assert reports[(name, "A")].passed, name
    # Across the whole matrix the envelope holds for the bulk of the
    # checks, even on the never-profiled platforms.
    total = sum(len(r.checks) for r in reports.values())
    passed = sum(1 for r in reports.values()
                 for c in r.checks if c.passed)
    assert passed / total >= 0.8, f"{passed}/{total} checks passed"
    benchmark.extra_info["cells"] = len(reports)
    benchmark.extra_info["check_pass_rate"] = round(passed / total, 4)
