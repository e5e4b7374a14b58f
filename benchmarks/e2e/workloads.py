"""The four end-to-end workloads: their inputs and one repeat of each.

Every workload is a pair of functions. ``build(seed, scale)`` makes the
inputs from the seed alone (the program never sees the seed any other
way); ``run(inputs, ctx)`` performs one repeat through the public entry
points (``run_experiment``, ``DittoCloner.clone``, ``FleetClient``) and
returns an :class:`Outcome`: the units of work attempted, how many failed,
a result digest that must repeat exactly, and the workload's own
observations.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    FidelityGateError,
    FleetClient,
    JobState,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
    build_mongodb,
    build_nginx,
    build_redis,
    build_social_network,
    run_experiment,
    social_network_deployment,
)
from repro.app.workloads import two_tier_deployment
from repro.profiling import ProfilingBudget
from repro.telemetry import Telemetry
from repro.util.spec_hash import stable_digest

#: workload sizes per scale; "smoke" keeps the self-test under a minute
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "socialnet_qps": 4_000, "socialnet_s": 1.0,
        "mongodb_connections": 16, "mongodb_s": 0.2,
        "clone_qps": 2_000, "clone_s": 0.2,
        "fleet_qps": 2_000, "fleet_s": 0.015,
        # ~120 profiled requests at 2k qps: with a shorter window some
        # seeds profile no ``compose_post`` request at all, the social
        # network clone lacks that path and its fidelity gate fails
        "profile_s": 0.06,
    },
    "smoke": {
        "socialnet_qps": 2_000, "socialnet_s": 0.05,
        "mongodb_connections": 4, "mongodb_s": 0.01,
        "clone_qps": 2_000, "clone_s": 0.05,
        "fleet_qps": 1_000, "fleet_s": 0.01,
        "profile_s": 0.015,
    },
}

TUNE_ITERATIONS = 3
#: process-pool width; the reference machine has two cores
WORKERS = 2


@dataclass
class RunContext:
    """Per-repeat settings the harness hands a workload."""

    #: scratch directory inside the checkout (the fleet's job store)
    workdir: Path
    #: the cProfile'd repeat runs every pool serially, so that one
    #: profile sees every call
    traced: bool = False
    #: the traced repeat's session (spans and fleet counters)
    telemetry: Optional[Telemetry] = None


@dataclass
class Outcome:
    """What one repeat did: ``attempted`` units of work, of which
    ``failed`` did not succeed."""

    attempted: int
    failed: int
    digest: str
    #: correctness misses beyond the digest (empty when correct)
    problems: List[str] = field(default_factory=list)
    #: per-layer metrics the workload observes itself, by name
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    build: Callable[[int, str], Any]
    run: Callable[[Any, RunContext], Outcome]


def _budget(size: Dict[str, Any]) -> ProfilingBudget:
    return ProfilingBudget(sampled_requests=8,
                           profile_duration_s=size["profile_s"])


def _socialnet_4node() -> Deployment:
    names = list(build_social_network())
    return social_network_deployment(
        placement={name: f"node{i % 4}" for i, name in enumerate(names)})


def result_digest(result) -> str:
    """Digest of one experiment's observable result.

    The formula of ``tests/test_perf_equivalence.py``: per-service
    counters, every latency sample, outcomes and device utilisations.
    """
    parts = [
        {name: m.snapshot() for name, m in sorted(result.services.items())},
        tuple(result.latency.samples),
        result.outcome_counts(),
        sorted(result.node_utilisation.items()),
        sorted(result.disk_utilisation.items()),
    ]
    if result.faults is not None:
        parts.append(result.faults.digest())
    return stable_digest(*parts)


# --------------------------------------------------------------------- #
# sim_socialnet / sim_mongodb
# --------------------------------------------------------------------- #
def build_sim_socialnet(seed: int, scale: str):
    size = SCALES[scale]
    return (_socialnet_4node(), LoadSpec.open_loop(size["socialnet_qps"]),
            ExperimentConfig(platform=PLATFORM_A,
                             duration_s=size["socialnet_s"], seed=seed))


def build_sim_mongodb(seed: int, scale: str):
    size = SCALES[scale]
    return (Deployment.single(build_mongodb()),
            LoadSpec.closed_loop(size["mongodb_connections"]),
            ExperimentConfig(platform=PLATFORM_A,
                             duration_s=size["mongodb_s"], seed=seed))


def run_sim(inputs, ctx: RunContext) -> Outcome:
    result = run_experiment(*inputs)
    outcomes = result.outcome_counts()
    attempted = sum(outcomes.values())
    return Outcome(
        attempted=attempted,
        failed=attempted - outcomes.get("ok", 0),
        digest=result_digest(result),
        problems=[] if attempted else ["no request completed"],
        detail={"sim.events": result.events_dispatched,
                "sim.events_per_req": result.events_dispatched / attempted})


# --------------------------------------------------------------------- #
# clone_socialnet
# --------------------------------------------------------------------- #
def build_clone_socialnet(seed: int, scale: str) -> CloneRequest:
    size = SCALES[scale]
    return CloneRequest(
        deployment=_socialnet_4node(),
        load=LoadSpec.open_loop(size["clone_qps"]),
        config=ExperimentConfig(platform=PLATFORM_A,
                                duration_s=size["clone_s"], seed=seed),
        budget=_budget(size), max_tune_iterations=TUNE_ITERATIONS,
        validate=True)


def run_clone(request: CloneRequest, ctx: RunContext) -> Outcome:
    cloner = DittoCloner(executor="serial" if ctx.traced else "process",
                         max_workers=WORKERS)
    try:
        report = cloner.clone(request).report
    except FidelityGateError as error:
        return Outcome(attempted=error.attempts, failed=error.attempts,
                       digest="", problems=[str(error)])
    knobs = {name: tuning.knobs for name, tuning in report.tuning.items()}
    rungs = len(report.remediation)
    problems = []
    if report.fidelity is None or not report.fidelity.passed:
        problems.append("fidelity gate did not pass")
    if rungs:
        problems.append(f"gate passed only after {rungs} remediation rungs")
    # each remediation rung is one more clone attempt that failed its gate
    return Outcome(
        attempted=1 + rungs,
        failed=rungs,
        digest=stable_digest(report.fidelity.to_dict(), knobs),
        problems=problems,
        detail={
            "core.pipeline.tier_s_max": max(report.tier_seconds.values()),
            "core.pipeline.tier_s_sum": sum(report.tier_seconds.values()),
            "runtime.expcache.hit_ratio": report.cache_stats.hit_rate,
            "fidelity_mean_err": report.fidelity.mean_error,
        })


# --------------------------------------------------------------------- #
# fleet_mixed
# --------------------------------------------------------------------- #
def build_fleet_mixed(seed: int, scale: str):
    size = SCALES[scale]

    def request(deployment, load, job_seed):
        return CloneRequest(
            deployment=deployment, load=load,
            config=ExperimentConfig(platform=PLATFORM_A,
                                    duration_s=size["fleet_s"],
                                    seed=job_seed),
            budget=_budget(size), max_tune_iterations=TUNE_ITERATIONS,
            validate=True)

    open_loop = LoadSpec.open_loop(size["fleet_qps"])
    memcached = Deployment.single(build_memcached())
    # Submission order matters: the duplicate of job 1 runs last, so it
    # reads the profile and cache entries job 1 wrote.
    return [
        ("memcached-a", request(memcached, open_loop, seed)),
        ("memcached-b", request(memcached, open_loop, seed + 1)),
        ("redis", request(Deployment.single(build_redis()),
                          LoadSpec.closed_loop(32), seed)),
        ("nginx", request(Deployment.single(build_nginx()), open_loop,
                          seed)),
        ("twotier", request(two_tier_deployment(), open_loop, seed)),
        ("memcached-a-dup", request(memcached, open_loop, seed)),
    ]


def run_fleet(jobs, ctx: RunContext) -> Outcome:
    store = ctx.workdir / "fleet-store"
    shutil.rmtree(store, ignore_errors=True)
    try:
        client = FleetClient(str(store))
        names = {client.submit(request, name=name).job_id: name
                 for name, request in jobs}
        outcomes = client.run_until_idle(
            executor="serial" if ctx.traced else "process",
            max_workers=WORKERS, telemetry=ctx.telemetry)
        digests = {names[o.job_id]: o.result_digest for o in outcomes}
        published = [o for o in outcomes if o.state is JobState.PUBLISHED]
        errors, hits, lookups = [], 0, 0
        for outcome in published:
            result = client.result(outcome.job_id)
            errors.append(result.fidelity["mean_error"])
            hits += result.cache_stats.hits
            lookups += result.cache_stats.lookups
    finally:
        shutil.rmtree(store, ignore_errors=True)
    problems = []
    if len(published) != len(jobs):
        problems.append(f"{len(published)}/{len(jobs)} jobs published")
    if digests.get("memcached-a") != digests.get("memcached-a-dup"):
        problems.append("duplicate job published a different result")
    return Outcome(
        attempted=len(jobs),
        failed=len(jobs) - len(published),
        digest=stable_digest(sorted(digests.values())),
        problems=problems,
        detail={
            "runtime.expcache.hit_ratio": hits / lookups if lookups else 0.0,
            "fidelity_mean_err": sum(errors) / max(1, len(errors)),
        })


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("sim_socialnet", "requests", build_sim_socialnet, run_sim),
        Workload("sim_mongodb", "requests", build_sim_mongodb, run_sim),
        Workload("clone_socialnet", "clones", build_clone_socialnet,
                 run_clone),
        Workload("fleet_mixed", "jobs", build_fleet_mixed, run_fleet),
    )
}
