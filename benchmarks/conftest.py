"""Shared fixtures for the paper-reproduction benchmarks.

Cloning is expensive, and several figures reuse the same clones, so the
clones are built once per session. Every benchmark writes its paper-style
table into ``benchmarks/results/<name>.txt`` (pytest captures stdout, so
files are the canonical artifact) and attaches headline numbers to the
pytest-benchmark ``extra_info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.app.service import Deployment
from repro.app.workloads import (
    build_memcached,
    build_mongodb,
    build_nginx,
    build_redis,
)
from repro.app.workloads.socialnet import social_network_deployment
from repro.core import CloneRequest, DittoCloner
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget
from repro.runtime import ExperimentCache, ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: session-wide experiment memoization — figures revisit the same
#: (deployment, load, config) points (e.g. the medium-load validation
#: runs appear in Fig. 5, Fig. 7 and the §6.2.1 summary), and
#: run_experiment is deterministic, so cross-figure repeats are served
#: from memory. Route measurement runs through :func:`measure`.
MEASURE_CACHE = ExperimentCache(max_entries=512)


def measure(deployment, load, config):
    """``run_experiment`` through the shared session cache."""
    return MEASURE_CACHE.run(deployment, load, config)

#: duration of every measurement run (simulated seconds)
RUN_SECONDS = 0.04
#: duration of profiling runs
PROFILE_SECONDS = 0.02

BENCH_BUDGET = ProfilingBudget(
    sampled_requests=10,
    max_accesses_per_spec=768,
    max_istream_per_block=3072,
    branch_outcomes_per_site=160,
    max_sites_per_population=10,
    dep_samples_per_block=64,
    profile_duration_s=PROFILE_SECONDS,
)


@dataclass(frozen=True)
class AppSetup:
    """One single-tier application's benchmark configuration."""

    name: str
    builder: Callable[[], object]
    profiling_load: LoadSpec
    loads: Dict[str, LoadSpec]             # low / medium / high
    page_cache_bytes: Optional[float] = None
    has_disk: bool = False

    def config(self, duration_s: float = RUN_SECONDS, seed: int = 11,
               **overrides) -> ExperimentConfig:
        """A run configuration for this app on platform A."""
        return ExperimentConfig(
            platform=overrides.pop("platform", PLATFORM_A),
            duration_s=duration_s,
            seed=seed,
            page_cache_bytes=self.page_cache_bytes,
            **overrides,
        )


APPS: Dict[str, AppSetup] = {
    "memcached": AppSetup(
        name="memcached", builder=build_memcached,
        profiling_load=LoadSpec.open_loop(100_000),
        loads={"low": LoadSpec.open_loop(8_000),
               "medium": LoadSpec.open_loop(100_000),
               "high": LoadSpec.open_loop(250_000)},
    ),
    "nginx": AppSetup(
        name="nginx", builder=build_nginx,
        profiling_load=LoadSpec.open_loop(18_000),
        loads={"low": LoadSpec.open_loop(2_500),
               "medium": LoadSpec.open_loop(18_000),
               "high": LoadSpec.open_loop(34_000)},
    ),
    "mongodb": AppSetup(
        name="mongodb", builder=build_mongodb,
        profiling_load=LoadSpec.closed_loop(4),
        loads={"low": LoadSpec.closed_loop(1),
               "medium": LoadSpec.closed_loop(4),
               "high": LoadSpec.closed_loop(12)},
        page_cache_bytes=4 * 1024**3,
        has_disk=True,
    ),
    "redis": AppSetup(
        name="redis", builder=build_redis,
        profiling_load=LoadSpec.closed_loop(4),
        loads={"low": LoadSpec.closed_loop(1),
               "medium": LoadSpec.closed_loop(4),
               "high": LoadSpec.closed_loop(16)},
    ),
}

SOCIALNET_LOADS = {
    "low": LoadSpec.open_loop(400),
    "medium": LoadSpec.open_loop(1000),
    "high": LoadSpec.open_loop(1800),
}


def write_result(name: str, text: str) -> Path:
    """Persist one benchmark's paper-style table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")
    return path


@pytest.fixture(scope="session")
def single_tier_clones() -> Dict[str, Tuple[Deployment, Deployment, object]]:
    """(original, synthetic, report) per single-tier app, tuned clones."""
    clones = {}
    for name, setup in APPS.items():
        original = Deployment.single(setup.builder())
        result = DittoCloner().clone(CloneRequest(
            deployment=original, load=setup.profiling_load,
            config=setup.config(duration_s=PROFILE_SECONDS, seed=5),
            fine_tune_tiers=True, max_tune_iterations=5,
            budget=BENCH_BUDGET))
        clones[name] = (original, result.synthetic, result.report)
    return clones


@pytest.fixture(scope="session")
def socialnet_clone() -> Tuple[Deployment, Deployment, object]:
    """(original, synthetic, report) for the 14-tier Social Network."""
    original = social_network_deployment()
    config = ExperimentConfig(platform=PLATFORM_A,
                              duration_s=PROFILE_SECONDS * 2, seed=5)
    result = DittoCloner().clone(CloneRequest(
        deployment=original, load=SOCIALNET_LOADS["medium"], config=config,
        fine_tune_tiers=False, budget=BENCH_BUDGET))
    return original, result.synthetic, result.report
