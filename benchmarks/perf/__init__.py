"""Perf-regression harness for the simulation fast paths.

Measures the hot paths this repo's perf work targets — DES engine event
throughput, set-associative cache simulation, Mattson working-set sweeps,
branch-outcome generation / prediction, and the end-to-end
``DittoCloner.clone`` wall-clock — and emits ``BENCH_perf.json`` at the
repo root with the measured rates, the recorded pre-optimization
baseline, and the resulting speedups.

Run it with::

    PYTHONPATH=src python -m benchmarks.perf            # full sizes
    PYTHONPATH=src python -m benchmarks.perf --smoke    # CI-sized

Correctness is enforced separately: ``tests/test_perf_equivalence.py``
proves the optimized paths bit-identical to their reference
implementations, so this harness only has to watch speed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"

#: pre-PR rates (best of 3) captured on the reference machine with the
#: same workloads at "full" scale, before the engine rewrite and the
#: cache/branch vectorization. ``branch_updates_per_s`` was measured
#: through the scalar predict_and_update loop — the only API that
#: existed then; the harness now routes the same workload through
#: ``predict_and_update_many``.
BASELINE = {
    "engine_events_per_s": 457_445.0,
    "cache_addresses_per_s": 758_196.0,
    "sweep_addresses_per_s": 178_517.0,
    "branch_updates_per_s": 517_209.0,
    "branch_gen_per_s": 6_058_093.0,
    "clone_wall_s": 0.986,
}

#: acceptance floors, as speedups vs BASELINE; the engine rate is a
#: diagnostic (its synthetic mix does not move clone wall time)
TARGETS = {
    "sweep_addresses_per_s": 3.0,
    "clone_wall_s": 1.5,
}

#: workload sizes per scale; smoke keeps CI runs under a few seconds
SCALES = {
    "full": {
        "engine_events": 409_600,
        "cache_accesses": 200_000,
        "sweep_accesses": 60_000,
        "branch_updates": 100_000,
        "branch_gen": 400_000,
        "clone_duration_s": 0.02,
        "clone_qps": 100_000,
    },
    "smoke": {
        "engine_events": 163_840,
        "cache_accesses": 20_000,
        "sweep_accesses": 8_000,
        "branch_updates": 20_000,
        "branch_gen": 50_000,
        "clone_duration_s": 0.01,
        "clone_qps": 50_000,
    },
}


def best_rate(fn: Callable[[], int], repeat: int = 3,
              warmup: int = 0) -> float:
    """Best units-per-second over ``repeat`` timed runs of ``fn``.

    ``fn`` returns the number of work units it performed. ``warmup``
    untimed calls run first: CPython's adaptive interpreter specializes
    hot bytecode only after several calls of the enclosing code objects,
    so steady-state rates need the loop bodies pre-warmed — otherwise
    the measurement reflects the unspecialized interpreter, which no
    long-running caller ever sees.
    """
    for _ in range(warmup):
        fn()
    rates = []
    for _ in range(repeat):
        start = time.perf_counter()
        units = fn()
        rates.append(units / (time.perf_counter() - start))
    return max(rates)


#: event mix driven by :func:`bench_engine`, mirroring a service
#: simulation's queue traffic: the bulk of the entries are arrival
#: timeouts, one ``Environment.timeout(gap)`` per arrival as the
#: open-loop generator schedules them, the remainder split between
#: zero-delay completion timeouts (the device-op fast-path churn) and
#: already-triggered event ping-pong (RPC resume traffic). The weights
#: are explicit so the metric stays reproducible and renegotiable in
#: one place.
ENGINE_MIX = {"arrivals": 0.80, "zero_delay": 0.10, "pingpong": 0.10}

#: simulated gap between arrivals in :func:`bench_engine`
ENGINE_GAP = 1e-7


def bench_engine(n: int) -> int:
    """Mixed event workload through the DES core (see ``ENGINE_MIX``).

    Returns the exact number of queue entries the engine dispatched
    (``Environment.dispatched_events``), so the reported rate counts
    real dispatches rather than nominal workload units.
    """
    from repro.sim import Environment

    env = Environment()
    n_arrivals = int(n * ENGINE_MIX["arrivals"])
    n_zero = int(n * ENGINE_MIX["zero_delay"])
    n_ping = max(0, n - n_arrivals - n_zero)

    def arrivals(count):
        timeout = env.timeout
        for _ in range(count):
            yield timeout(ENGINE_GAP)

    def completions(count):
        timeout = env.timeout
        for _ in range(count):
            yield timeout(0.0)

    def pingpong(count):
        event = env.event
        for _ in range(count):
            evt = event()
            evt.succeed(1)
            yield evt

    env.process(arrivals(n_arrivals))
    env.process(completions(n_zero))
    env.process(pingpong(n_ping))
    env.run()
    return env.dispatched_events


def bench_cache(n: int) -> int:
    """Batched set-associative LRU simulation of a random stream."""
    from repro.hw.cache import CacheConfig, SetAssociativeCache, generate_access_stream
    from repro.hw.ir import MemAccessSpec, MemPattern
    from repro.util.rng import make_rng

    cache = SetAssociativeCache(CacheConfig("l2", 256 * 1024, 8, 12))
    rng = make_rng(1, "bench")
    spec = MemAccessSpec(wset_bytes=1024 * 1024, accesses=n,
                         pattern=MemPattern.RANDOM)
    cache.access_many(generate_access_stream(spec, rng, n))
    return n


def bench_sweep(n: int) -> int:
    """Mattson stack-distance working-set sweep (profiling hot path)."""
    from repro.hw.cache import generate_access_stream
    from repro.hw.ir import MemAccessSpec, MemPattern
    from repro.profiling.wset import profile_working_sets
    from repro.util.rng import make_rng

    rng = make_rng(2, "bench")
    spec = MemAccessSpec(wset_bytes=2 * 1024 * 1024, accesses=n,
                         pattern=MemPattern.RANDOM)
    profile_working_sets(generate_access_stream(spec, rng, n),
                         max_size=64 * 1024 * 1024)
    return n


def bench_branch_updates(n: int) -> int:
    """Gshare predictor updates over a generated outcome stream."""
    import numpy as np

    from repro.hw.branch import GsharePredictor, generate_branch_outcomes
    from repro.util.rng import make_rng

    rng = make_rng(3, "bench")
    outcomes = generate_branch_outcomes(0.7, 0.2, n, rng)
    pred = GsharePredictor(12)
    pred.predict_and_update_many(np.full(n, 12345, dtype=np.int64),
                                 np.asarray(outcomes, dtype=bool))
    return n


def bench_branch_gen(n: int) -> int:
    """Markov branch-outcome stream generation."""
    from repro.hw.branch import generate_branch_outcomes
    from repro.util.rng import make_rng

    rng = make_rng(4, "bench")
    generate_branch_outcomes(0.7, 0.2, n, rng)
    return n


def bench_clone(duration_s: float, qps: float, repeat: int = 3) -> float:
    """Best wall-clock (seconds) for an end-to-end memcached clone."""
    from repro import (CloneRequest, Deployment, DittoCloner,
                       ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_memcached)
    from repro.profiling import ProfilingBudget

    times = []
    for _ in range(repeat):
        cloner = DittoCloner(executor="serial")
        start = time.perf_counter()
        cloner.clone(CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(qps),
            config=ExperimentConfig(platform=PLATFORM_A,
                                    duration_s=duration_s, seed=5),
            fine_tune_tiers=True, max_tune_iterations=3,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015)))
        times.append(time.perf_counter() - start)
    return min(times)


def run_suite(scale: str = "full", repeat: int = 3) -> Dict[str, object]:
    """Run every benchmark and return the BENCH_perf.json payload."""
    sizes = SCALES[scale]
    metrics = {
        "engine_events_per_s": best_rate(
            lambda: bench_engine(sizes["engine_events"]), repeat,
            warmup=8),
        "cache_addresses_per_s": best_rate(
            lambda: bench_cache(sizes["cache_accesses"]), repeat),
        "sweep_addresses_per_s": best_rate(
            lambda: bench_sweep(sizes["sweep_accesses"]), repeat),
        "branch_updates_per_s": best_rate(
            lambda: bench_branch_updates(sizes["branch_updates"]), repeat),
        "branch_gen_per_s": best_rate(
            lambda: bench_branch_gen(sizes["branch_gen"]), repeat),
        "clone_wall_s": bench_clone(sizes["clone_duration_s"],
                                    sizes["clone_qps"], repeat),
    }
    speedups = {}
    for name, value in metrics.items():
        base = BASELINE[name]
        # rates (_per_s) improve upward, wall-clock improves downward
        speedups[name] = (value / base if name.endswith("_per_s")
                          else base / value)
    return {
        "scale": scale,
        "repeat": repeat,
        "metrics": metrics,
        "baseline_pre_pr": dict(BASELINE),
        "speedups_vs_baseline": speedups,
        "targets": dict(TARGETS),
        "notes": (
            "baseline_pre_pr was captured at scale=full on the reference "
            "machine before the DES/event-loop rewrite and cache/branch "
            "vectorization; speedups at other scales or on other machines "
            "are indicative only. engine_events_per_s drives the mixed "
            "workload in ENGINE_MIX and counts actual engine dispatches; "
            "it is a diagnostic, not a target. "
            "Bit-level correctness of the optimized paths is enforced by "
            "tests/test_perf_equivalence.py."
        ),
    }


def write_report(payload: Dict[str, object], output: Path = DEFAULT_OUTPUT) -> Path:
    """Write the payload as pretty JSON and return the path."""
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return output
