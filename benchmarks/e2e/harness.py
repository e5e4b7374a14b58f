"""Measurement protocol for one workload in one interpreter.

One invocation measures one workload:

1. build the inputs from the seed;
2. one untimed warm-up repeat, which fills process-wide memos (the
   kernel-block cache, the branch oracle) as a long-running user's
   process would have them filled;
3. timed repeats until they add up to ``seconds``; between them, the
   set-up samples: fresh interpreters that import ``repro`` and build
   the same inputs;
4. with ``trace``, one more repeat under cProfile and a telemetry
   session, with every pool run serially so one profile sees every call.

Every repeat's digest must match the warm-up's, and at the pinned seed
the pinned digest. The record keeps every repeat.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
REPRO = SRC / "repro"
WORKDIR = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"

#: fresh interpreters timed per set-up measurement
SETUP_RUNS = {"full": 9, "smoke": 1}

#: exact call counts: metric name -> (source file under repro, function)
CALL_COUNTS = {
    "runtime.pricing.price.calls": ("runtime/pricing.py", "price"),
    "hw.core.time_block.calls": ("hw/core.py", "time_block"),
    "runtime.metrics.absorb.calls": ("runtime/metrics.py", "absorb"),
    "runtime.service.pricing_key.calls": ("runtime/service.py",
                                          "_pricing_key"),
    "kernelsim.cpu.execute_op.calls": ("kernelsim/scheduler.py",
                                       "execute_op"),
    "kernelsim.nic.transmit_op.calls": ("kernelsim/netstack.py",
                                        "transmit_op"),
    "kernelsim.disk.io_op.calls": ("kernelsim/node.py", "io_op"),
    "tracing.start_span.calls": ("tracing/tracer.py", "start_span"),
    "analysis.treedit.calls": ("analysis/treedit.py", "tree_edit_distance"),
    "util.spec_hash.digest.calls": ("util/spec_hash.py", "stable_digest"),
    "runtime.experiment.calls": ("runtime/experiment.py", "run_experiment"),
}

#: pipeline stages: metric name -> the span the program records
STAGES = {
    "stage.profiling_s": "profiling",
    "stage.feature_extraction_s": "feature_extraction",
    "stage.fine_tune_s": "fine_tune",
    "stage.generation_s": "generation",
    "stage.fidelity_gate_s": "fidelity_gate",
    "stage.run_experiment_s": "run_experiment",
}


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics and the run length."""
    return json.loads(BENCHMARK_JSON.read_text())


def declared_metrics() -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """The end-to-end and per-layer metric declarations, by name."""
    spec = benchmark_spec()
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and count of ``samples`` (all kept)."""
    values = sorted(float(v) for v in samples)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


# --------------------------------------------------------------------- #
# profile folding
# --------------------------------------------------------------------- #
def source_layer(filename: str, layers: Set[str]) -> Optional[str]:
    """The layer of ``layers`` a source file belongs to.

    A file under ``repro/runtime`` is ``runtime.<module>``, any other
    file under ``repro`` is its subpackage; names not in ``layers``
    fold into ``other``, and files outside ``repro`` are ``external``.
    ``None`` for frames without a file of their own — C builtins
    (``~``) and generated code such as dataclass methods (``<string>``)
    — whose time belongs to whoever called them.
    """
    if filename == "~" or filename.startswith("<"):
        return None
    try:
        parts = Path(filename).resolve().relative_to(REPRO).parts
    except ValueError:
        return "external"
    if parts[0] == "runtime":
        name = f"runtime.{Path(parts[-1]).stem}"
    else:
        name = parts[0]
    return name if name in layers else "other"


def fold_profile(stats: pstats.Stats, layers: Set[str]) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total.

    Time in a frame without a file is charged to the layer of its
    heaviest caller chain, so ``dict.get`` inside the pricer counts as
    pricing and a C ``heappush`` inside the engine counts as ``sim``.
    """
    entries = stats.stats
    owners: Dict[tuple, str] = {}

    def owner(func, seen=()) -> str:
        if func in owners:
            return owners[func]
        layer = source_layer(func[0], layers)
        if layer is None:
            callers = entries[func][4] if func in entries else {}
            heaviest = max(callers, key=lambda c: callers[c][2],
                           default=None)
            layer = ("external" if heaviest is None or heaviest in seen
                     else owner(heaviest, seen + (func,)))
        owners[func] = layer
        return layer

    self_s: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, callers) in entries.items():
        if source_layer(func[0], layers) is not None or not callers:
            layer = owner(func)
            self_s[layer] = self_s.get(layer, 0.0) + tottime
            continue
        # a builtin's time is split across its callers' layers
        for caller, edge in callers.items():
            layer = owner(caller)
            self_s[layer] = self_s.get(layer, 0.0) + edge[2]
    return self_s


def call_counts(stats: pstats.Stats) -> Dict[str, float]:
    """The exact call counts of :data:`CALL_COUNTS` plus derived values."""
    found: Dict[str, float] = {name: 0 for name in CALL_COUNTS}
    digest_s = 0.0
    price_misses = 0
    for func, (_cc, ncalls, _tt, cumtime, callers) in stats.stats.items():
        filename, _line, function = func
        for name, (suffix, wanted) in CALL_COUNTS.items():
            if function == wanted and filename.endswith(
                    os.path.join("repro", suffix)):
                found[name] += ncalls
                if name == "util.spec_hash.digest.calls":
                    digest_s += cumtime
                if name == "hw.core.time_block.calls":
                    price_misses += sum(
                        edge[1] for caller, edge in callers.items()
                        if caller[2] == "price")
    prices = found["runtime.pricing.price.calls"]
    found["runtime.pricing.hit_ratio"] = (
        1.0 - price_misses / prices if prices else 0.0)
    found["util.spec_hash.digest_s"] = digest_s
    return found


# --------------------------------------------------------------------- #
# the protocol
# --------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``src`` on the path, and temporary files kept inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["TMPDIR"] = str(WORKDIR / "tmp")
    return env


def setup_seconds(workload: str, seed: int, scale: str) -> float:
    """Wall seconds of a fresh interpreter that builds the inputs."""
    code = ("from benchmarks.e2e.workloads import WORKLOADS; "
            f"WORKLOADS[{workload!r}].build({seed}, {scale!r})")
    start = time.perf_counter()
    # no timeout: with one, CPython polls for the child's exit with
    # sleeps of up to 50 ms, which would round every sample up
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Max RSS of this process or its largest finished child (pool
    workers, set-up interpreters), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_pins(path: Path, scale: str) -> Tuple[Optional[int], Dict[str, str]]:
    """(pinned seed, {workload: digest}) for ``scale``."""
    doc = json.loads(path.read_text())
    return doc["seed"], doc["digests"].get(scale, {})


def traced_repeat(workload, inputs, layers: Set[str]
                  ) -> Tuple[object, float, Dict[str, float]]:
    """One repeat under cProfile and a telemetry session.

    Returns the outcome, its wall seconds and the profile's per-layer
    metrics: self seconds by layer, exact call counts, stage seconds
    from the program's own spans, and the fleet's counters.
    """
    from repro.telemetry import Telemetry

    from benchmarks.e2e.workloads import RunContext

    session = Telemetry(label=workload.name, sim_timeline=False)
    ctx = RunContext(WORKDIR, traced=True, telemetry=session)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    with session:
        profiler.enable()
        outcome = workload.run(inputs, ctx)
        profiler.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler)
    found = {f"{layer}.self_s": value
             for layer, value in fold_profile(stats, layers).items()}
    found["trace.total_s"] = stats.total_tt
    found.update(call_counts(stats))
    spans = session.spans.by_name()
    for metric, span_name in STAGES.items():
        found[metric] = sum(r.duration_s for r in spans.get(span_name, ()))
    for metric, counter in (
            ("fleet.profile_reuses", "ditto_fleet_profile_reuse_total"),
            ("fleet.shared_cache_hits",
             "ditto_fleet_shared_cache_hits_total")):
        registered = session.registry.get(counter)
        found[metric] = registered.total() if registered is not None else 0
    return outcome, wall, found


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", pins: Path = PINS_JSON) -> dict:
    """Run the protocol for one workload; returns the full record."""
    from benchmarks.e2e.workloads import WORKLOADS, RunContext

    end_to_end, per_layer_spec = declared_metrics()
    layers = {m[:-len(".self_s")] for m in per_layer_spec
              if m.endswith(".self_s")}
    workload = WORKLOADS[name]
    os.makedirs(WORKDIR / "tmp", exist_ok=True)
    ctx = RunContext(WORKDIR)
    inputs = workload.build(seed, scale)

    start = time.perf_counter()
    warmup = workload.run(inputs, ctx)
    warmup_s = time.perf_counter() - start

    repeats, outcomes, walls, setup = [], [], [], []
    while not walls or sum(walls) < seconds:
        start = time.perf_counter()
        outcome = workload.run(inputs, ctx)
        walls.append(time.perf_counter() - start)
        outcomes.append(outcome)
        repeats.append({"wall_s": walls[-1], "attempted": outcome.attempted,
                        "failed": outcome.failed})
        # set-up samples sit between the repeats, so they spread over
        # the run instead of sharing one moment's load on the machine
        if len(setup) < SETUP_RUNS[scale]:
            setup.append(setup_seconds(name, seed, scale))
    while len(setup) < SETUP_RUNS[scale]:
        setup.append(setup_seconds(name, seed, scale))
    rss = peak_rss_mb()

    per_layer: Dict[str, float] = {"warmup_s": warmup_s}
    checked = [warmup] + outcomes
    if trace:
        traced, traced_wall, found = traced_repeat(workload, inputs, layers)
        checked.append(traced)
        per_layer.update(found)
        per_layer["trace.overhead_x"] = traced_wall / statistics.median(walls)

    # correctness: every repeat reproduces the warm-up, and the pinned
    # digest holds at the pinned seed
    problems = sorted({p for o in checked for p in o.problems})
    digests = sorted({o.digest for o in checked})
    if len(digests) != 1:
        problems.append(f"result digest differs across repeats: {digests}")
    pinned_seed, pinned = load_pins(pins, scale)
    expected = pinned.get(name) if seed == pinned_seed else None
    if expected is not None and warmup.digest != expected:
        problems.append(f"digest {warmup.digest} != pinned {expected}")

    for key in outcomes[0].detail:
        per_layer[key] = statistics.median(o.detail[key] for o in outcomes)
    if "sim.events" in per_layer:
        per_layer["sim.events_per_s"] = statistics.median(
            o.detail["sim.events"] / wall for o, wall in zip(outcomes, walls))

    # throughput counts only the work that succeeded, so failing sooner
    # never reads as a gain
    metrics = {"throughput": summary([(r["attempted"] - r["failed"])
                                      / r["wall_s"] for r in repeats]),
               "setup_s": summary(setup), "peak_rss_mb": summary([rss])}
    record = {
        "format": "ditto-e2e-run/1",
        "workload": name, "unit": workload.unit, "seed": seed,
        "scale": scale, "seconds": seconds, "traced": trace,
        "correct": not problems, "problems": problems,
        "digest": warmup.digest, "pinned": expected,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "repeats": repeats,
        "metrics": {m: dict(metrics[m], unit=spec["unit"])
                    for m, spec in end_to_end.items()},
    }
    if trace:
        # a layer or stage a workload never enters reads 0, so every
        # workload reports the same names
        record["per_layer"] = {
            m: {"value": float(per_layer.get(m, 0.0)), "unit": spec["unit"]}
            for m, spec in per_layer_spec.items()}
    return record


def result_line(record: dict) -> dict:
    """The one-line result: declared end-to-end or per-layer metrics."""
    source = record["per_layer"] if record["traced"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in source.items()},
    }
