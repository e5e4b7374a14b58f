"""Experiment orchestration: deploy, load, measure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.app.service import Deployment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.contention import CoRunner, contention_factors
from repro.hw.platform import PlatformSpec
from repro.kernelsim.node import Node
from repro.loadgen.generator import LatencyRecorder, LoadSpec, build_generator
from repro.runtime.metrics import RunResult
from repro.runtime.pricing import BlockPricer
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.service import NodeState, ServiceRuntime
from repro.sim import Environment
from repro.telemetry.context import current_session
from repro.telemetry.spans import span
from repro.tracing.tracer import Tracer
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream, derive_seed

#: cap on how much of a co-located tier's code can pollute the i-side
COLOCATED_CODE_CAP = 512 * 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experiment run."""

    platform: PlatformSpec
    duration_s: float = 1.0
    seed: int = 42
    frequency_ghz: Optional[float] = None    # DVFS override (Fig. 11)
    cores: Optional[int] = None              # core-count override (Fig. 11)
    corunners: Tuple[CoRunner, ...] = ()     # interference (Fig. 10)
    page_cache_bytes: Optional[float] = None
    trace_sample_rate: float = 0.1
    connections_hint: Optional[int] = None
    tracer: Optional[Tracer] = None
    #: scripted faults injected into the run; ``None`` or an empty plan
    #: leaves the run bit-identical to a fault-free one
    fault_plan: Optional[FaultPlan] = None
    #: RPC timeout/retry/breaker/shedding semantics; ``None`` keeps the
    #: historical bare-RPC behaviour
    resilience: Optional[ResilienceConfig] = None
    #: watchdog: cap on queue entries the run may dispatch (``None``
    #: disables; a disabled run takes the engine's historical fast path)
    max_sim_events: Optional[int] = None
    #: watchdog: absolute simulated-time deadline for the run; a run
    #: normally finishes shortly after ``duration_s``, so a pathological
    #: config (runaway retry storm, tuning knob blow-up) trips this
    #: instead of hanging the tier
    sim_deadline_s: Optional[float] = None
    #: watchdog: livelock detector — consecutive dispatches allowed
    #: without the simulated clock advancing
    max_stalled_events: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, "
                f"got {self.duration_s!r}")
        if self.max_sim_events is not None and self.max_sim_events < 1:
            raise ConfigurationError("max_sim_events must be >= 1")
        if self.sim_deadline_s is not None \
                and not self.sim_deadline_s >= self.duration_s:
            raise ConfigurationError(
                f"sim_deadline_s ({self.sim_deadline_s!r}) must cover "
                f"duration_s ({self.duration_s!r})")
        if self.max_stalled_events is not None \
                and self.max_stalled_events < 1:
            raise ConfigurationError("max_stalled_events must be >= 1")
        if (self.fault_plan is not None
                and not isinstance(self.fault_plan, FaultPlan)):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan, got {self.fault_plan!r}")
        if (self.resilience is not None
                and not isinstance(self.resilience, ResilienceConfig)):
            raise ConfigurationError(
                f"resilience must be a ResilienceConfig, "
                f"got {self.resilience!r}")


def run_experiment(
    deployment: Deployment,
    load: LoadSpec,
    config: ExperimentConfig,
) -> RunResult:
    """Run one load point of a deployment and collect measurements.

    Telemetry (when a session is active): the run is wrapped in a
    wall-clock span, counted in ``ditto_experiments_total``, and — if
    the session records simulated time — services and kernel devices
    emit their per-request/per-IO events onto a fresh timeline run.
    All of it is observation-only: measured results are identical with
    telemetry on, off, or absent.
    """
    session = current_session()
    timeline_run = None
    if session is not None and session.timeline is not None:
        load_text = (f"open {load.qps:g} qps" if load.kind == "open"
                     else f"closed {load.connections} conns")
        timeline_run = session.timeline.begin_run(
            f"{deployment.entry_service} ({load_text})")
    with span("run_experiment", category="experiment",
              service=deployment.entry_service,
              duration_s=config.duration_s):
        result = _run_experiment(deployment, load, config, timeline_run)
    if session is not None:
        session.registry.counter(
            "ditto_experiments_total",
            "simulated experiment runs executed").inc()
        requests = session.registry.counter(
            "ditto_sim_requests_total",
            "requests completed inside simulated runs", ("service",))
        for name, metrics in result.services.items():
            if metrics.requests:
                requests.inc(metrics.requests, service=name)
    return result


def _run_experiment(
    deployment: Deployment,
    load: LoadSpec,
    config: ExperimentConfig,
    timeline_run=None,
) -> RunResult:
    env = Environment(timeline=timeline_run)
    stream = RngStream(config.seed, "experiment")
    # Fault injection: the injector draws exclusively from streams under
    # derive_seed(seed, "faults", ...), so it cannot perturb the load
    # generator's or any profiler's randomness. An absent/empty plan
    # attaches nothing — the run is bit-identical to the fault-free one.
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None and not config.fault_plan.is_empty:
        injector = FaultInjector(
            config.fault_plan,
            seed=derive_seed(config.seed, "faults")).attach(env)
    tracer = config.tracer if config.tracer is not None else Tracer(
        sample_rate=config.trace_sample_rate, seed=config.seed)
    platform = config.platform
    corunners = list(config.corunners)
    # Nodes with their devices (NIC/disk shares degraded by stressors).
    nodes: Dict[str, Node] = {}
    node_states: Dict[str, NodeState] = {}
    for node_name in deployment.node_names():
        factors_probe = contention_factors(0.0, corunners)
        node = Node(
            env, platform, name=node_name,
            cores=config.cores,
            frequency_ghz=config.frequency_ghz,
            page_cache_bytes=config.page_cache_bytes,
            nic_bandwidth_share=factors_probe.net_share,
            disk_bandwidth_share=factors_probe.disk_share,
        )
        nodes[node_name] = node
        state = NodeState(node=node)
        for service_name in deployment.services_on(node_name):
            program = deployment.services[service_name].program
            state.colocated_code_bytes[service_name] = min(
                COLOCATED_CODE_CAP, program.hot_code_bytes)
            state.colocated_resident_bytes[service_name] = (
                program.resident_bytes)
        node_states[node_name] = state
    pricer = BlockPricer(platform, frequency_ghz=config.frequency_ghz)
    # Connection hint: closed-loop connection count, else a typical pool.
    if config.connections_hint is not None:
        connections = config.connections_hint
    elif load.kind == "closed":
        connections = load.connections
    else:
        connections = 32
    # Service runtimes share one registry for RPC routing.
    registry: Dict[str, ServiceRuntime] = {}
    for service_name, spec in deployment.services.items():
        node = nodes[deployment.node_of(service_name)]
        factors = contention_factors(spec.program.resident_bytes, corunners)
        runtime = ServiceRuntime(
            env=env,
            spec=spec,
            node=node,
            node_state=node_states[deployment.node_of(service_name)],
            pricer=pricer,
            tracer=tracer,
            base_factors=factors,
            connections_hint=connections,
            registry=registry,
            cross_node_latency_s=platform.network.base_latency_s,
            resilience=config.resilience,
            rng_stream=stream,
        )
        registry[service_name] = runtime
        # Pre-warm the page cache to steady state: a long-running service
        # arrives at our measurement window with its cache share filled.
        for fname in spec.files:
            file_spec = node.filesystem.lookup(fname)
            capacity = node.filesystem.page_cache.capacity_bytes
            node.filesystem.page_cache.write(
                file_spec, min(file_spec.size_bytes, capacity))
    for runtime in registry.values():
        runtime.start()
    entry = registry[deployment.entry_service]
    recorder = LatencyRecorder()

    def submit(handler: str):
        trace_id = tracer.start_trace()
        response = entry.submit(handler, src_node="client",
                                trace_id=trace_id)
        # Evict the sampling verdict once the request tree completes —
        # every span below the root has been opened by then, and without
        # this the tracer's verdict map grows one entry per request.
        response.callbacks.append(lambda _evt: tracer.end_trace(trace_id))
        return response

    generator = build_generator(
        env=env,
        submit=submit,
        mix=deployment.services[deployment.entry_service].mix_histogram(),
        load=load,
        duration_s=config.duration_s,
        rng_stream=stream,
        recorder=recorder,
    )
    generator.start()
    # Run until all injected requests drain (workers blocked on empty
    # queues schedule no events, so the event queue empties naturally).
    # With any watchdog configured the engine runs its guarded loop and
    # raises SimBudgetExceededError naming the stuck entry; with none,
    # this is the historical (bit-identical) fast path.
    env.run(until=None,
            max_events=config.max_sim_events,
            deadline=config.sim_deadline_s,
            max_stalled_events=config.max_stalled_events)
    # Every issued request must end in exactly one outcome; a mismatch
    # means the simulation lost (or double-counted) a request.
    finished = sum(recorder.outcome_counts().values())
    if finished != recorder.issued:
        raise SimulationError(
            f"{recorder.issued} request(s) issued but {finished} "
            f"ended in an outcome")
    # Services fold their charge logs in chunks; fold what is left so the
    # result holds every charge and no log.
    for runtime in registry.values():
        runtime.fold()
    duration = max(config.duration_s, 1e-9)
    return RunResult(
        duration_s=duration,
        services={name: rt.metrics for name, rt in registry.items()},
        latency=recorder,
        node_utilisation={
            name: node.cpu.utilisation(duration)
            for name, node in nodes.items()
        },
        disk_utilisation={
            name: min(1.0, (node.disk.read_bytes + node.disk.write_bytes)
                      / (node.disk.spec.bandwidth_bytes_per_s * duration))
            for name, node in nodes.items()
        },
        faults=injector.timeline if injector is not None else None,
        breakers={
            name: {
                target: {"state": breaker.state,
                         "open_transitions": breaker.open_transitions,
                         "rejections": breaker.rejections}
                for target, breaker in rt._breakers.items()
            }
            for name, rt in registry.items() if rt._breakers
        },
        events_dispatched=env.dispatched_events,
    )


def sweep_load(
    deployment: Deployment,
    loads: List[LoadSpec],
    config: ExperimentConfig,
    cache=None,
) -> List[RunResult]:
    """Run a list of load points (fresh simulation each).

    Pass an :class:`~repro.runtime.expcache.ExperimentCache` as
    ``cache`` to memoize the points: cross-figure sweeps that revisit a
    (deployment, load, platform) combination are then served from
    memory instead of re-simulating.
    """
    if cache is not None:
        return cache.sweep(deployment, loads, config)
    return [run_experiment(deployment, load, config) for load in loads]
