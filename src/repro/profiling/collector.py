"""The instrumentation harness.

Runs the target deployment under the profiling load with full tracing,
then — playing the role of SystemTap + Intel SDE + Valgrind attached to
each service process — materialises per-service execution artifacts:
the sampled instruction stream as a per-iform table, per-region
working-set statistics, a branch tally, a dependency-distance tally,
syscall logs, and thread observations over a table of call-tree shapes.
Address traces, branch outcome histories, dependency tuples and thread
call graphs are sampled and reduced here; a profile carries the
statistics, not the raw samples.

The harness necessarily reads the application models to synthesise the
streams (it *is* the instrumentation, running inside the profiled
process); the feature extractors downstream consume only the artifacts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.treedit import CallTree
from repro.app.program import ComputeOp, Handler, RpcOp, SyscallOp
from repro.app.service import Deployment, ServiceSpec
from repro.app.skeleton import ClientNetworkModel
from repro.hw.branch import generate_branch_outcomes
from repro.hw.cache import LINE_BYTES
from repro.kernelsim.syscalls import SyscallInvocation
from repro.hw.ir import BlockSpec
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import (
    IformStats,
    ProfilingBudget,
    RegionStats,
    ServiceArtifacts,
    ThreadObservation,
)
from repro.profiling.wset import (
    DATA_SWEEP_SIZES,
    INSTR_SWEEP_SIZES,
    regularity_ratio,
    reuse_distances,
    shared_ratio,
    sweep_hits,
)
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.runtime.pool import WorkerPool, fan_out
from repro.tracing.graph import Topology, analyze_topology
from repro.tracing.span import Span, SpanKind
from repro.tracing.tracer import Tracer
from repro.util.errors import ProfilingError
from repro.util.quantize import next_pow2
from repro.util.rng import RngStream
from repro.util.stats import Histogram

#: average encoded instruction length assumed by the i-side maths (§4.4.5)
INSTRUCTION_BYTES = 4
#: how often profiling may double its window to see every entry operation
MAX_WINDOW_DOUBLINGS = 3


@dataclass
class ApplicationProfile:
    """All artifacts of one profiling session."""

    entry_service: str
    services: Dict[str, ServiceArtifacts]
    #: the RPC dependency graph the session's traces reduce to
    topology: Topology
    platform_name: str
    profiling_qps: float

    def artifacts(self, service: str) -> ServiceArtifacts:
        """Artifacts for one service."""
        found = self.services.get(service)
        if found is None:
            raise ProfilingError(f"no artifacts for service {service!r}")
        return found


class _AddressArena:
    """Assigns disjoint virtual regions for observed working sets."""

    def __init__(self, base: int) -> None:
        self._next = base

    def region(self, size_bytes: int) -> int:
        aligned = next_pow2(max(64, int(size_bytes)))
        base = self._next
        self._next += aligned * 2
        return base


class _RegionAccumulator:
    """Accumulates one region's sampled accesses across requests.

    Implements the spatial (set-sampling) discipline: regions larger than
    ``TARGET_LINES`` cache lines are observed through a strided 1-in-K
    line sample (``stride_lines``), so each sampled reuse distance
    stands for K times as many lines.
    """

    TARGET_LINES = 512

    def __init__(self, base: int, wset_bytes: int,
                 shared_frac: float = 0.0, chase_frac: float = 0.0) -> None:
        self.base = base
        self.wset_bytes = max(64, int(wset_bytes))
        self.shared_frac = float(shared_frac)
        self.chase_frac = float(chase_frac)
        lines = max(1, self.wset_bytes // 64)
        self.stride_lines = max(1, int(np.ceil(lines / self.TARGET_LINES)))
        self.grid = max(1, lines // self.stride_lines)
        self.offsets: List[np.ndarray] = []
        self.weights: List[np.ndarray] = []
        self.offsets_t2: List[np.ndarray] = []
        self._position = 0

    def record(self, pattern, total_accesses: float, length: int,
               rng: np.random.Generator) -> None:
        """Sample ``length`` grid accesses standing for ``total_accesses``."""
        from repro.hw.ir import MemPattern
        length = max(8, min(length, 4 * self.grid + 16))
        if pattern is MemPattern.SEQUENTIAL:
            # Sequential position persists across requests: successive
            # requests stream successive chunks (different values of the
            # same store), wrapping only after a full region sweep.
            grid_offsets = (self._position + np.arange(length)) % self.grid
            self._position = int((self._position + length) % self.grid)
        elif pattern is MemPattern.STRIDED:
            grid_offsets = (self._position + np.arange(length) * 2) % self.grid
            self._position = int((self._position + length * 2) % self.grid)
        elif pattern is MemPattern.RANDOM:
            grid_offsets = rng.integers(0, self.grid, size=length)
        else:  # POINTER_CHASE
            perm = rng.permutation(self.grid)
            grid_offsets = perm[np.arange(length) % self.grid]
        addresses = (self.base
                     + grid_offsets.astype(np.int64)
                     * self.stride_lines * 64)
        self.offsets.append(addresses)
        self.weights.append(
            np.full(length, total_accesses / length, dtype=np.float64))
        if self.shared_frac > 0.0:
            # A sibling thread touches the shared subset of the region's
            # lines; the rest of its accesses land in its own arena.
            overlap = int(round(length * self.shared_frac))
            perm = rng.permutation(self.grid)
            t2 = (self.base
                  + perm[np.arange(length) % self.grid].astype(np.int64)
                  * self.stride_lines * 64)
            # Shift the non-shared tail outside this region.
            t2[overlap:] += int(next_pow2(self.wset_bytes)) * 8
            self.offsets_t2.append(t2)

    def record_instruction_walk(self, dynamic_instructions: float,
                                length: int) -> None:
        """Sample an instruction-pointer walk cycling over the region."""
        instructions_in_region = max(1, self.wset_bytes // INSTRUCTION_BYTES)
        length = max(16, min(length, 4 * instructions_in_region))
        stride_instr = max(1, int(np.ceil(
            instructions_in_region / max(1, length // 2))))
        stride_bytes = stride_instr * INSTRUCTION_BYTES
        steps = (np.arange(length) * stride_bytes) % self.wset_bytes
        self.stride_lines = max(1, stride_bytes // 64)
        self.offsets.append(self.base + steps.astype(np.int64))
        self.weights.append(np.full(
            length, dynamic_instructions / length, dtype=np.float64))

    def finalize(self, sizes: Tuple[int, ...]) -> Optional[RegionStats]:
        """Reduce the sampled trace to its working-set statistics.

        Reuse distances measured on the sampled lines are scaled by the
        line-sampling stride to estimate true stack distances.
        A long-running service's lines are not really cold — the bounded
        trace window merely starts mid-stream — so first touches take
        the region's steady-state stack distance: the full extent for
        regular (cyclic) traces, and a uniform spread over the extent
        for irregular ones (the stack-distance law of uniform random
        access).
        """
        if not self.offsets:
            return None
        addresses = np.concatenate(self.offsets)
        weights = np.concatenate(self.weights)
        region_bytes = float(addresses.max() - addresses.min()) + 64.0 * (
            self.stride_lines)
        distances = reuse_distances(addresses).astype(np.float64)
        scaled = distances * float(self.stride_lines)
        first = distances < 0
        n_first = int(first.sum())
        if n_first:
            region_lines = max(1.0, region_bytes / LINE_BYTES)
            if regularity_ratio(addresses) >= 0.5:
                scaled[first] = region_lines
            else:
                scaled[first] = np.linspace(
                    region_lines / n_first, region_lines, n_first)
        return RegionStats(
            hits=sweep_hits(scaled, weights, sizes),
            total_weight=float(weights.sum()),
            regularity=regularity_ratio(addresses, weights),
            shared=(shared_ratio(addresses, np.concatenate(self.offsets_t2),
                                 weights)
                    if self.offsets_t2 else None),
            chase_frac=self.chase_frac,
            region_bytes=region_bytes,
        )


def _handler_mix_from_spans(
    spans: List[Span], service: str
) -> Dict[str, float]:
    mix: Dict[str, float] = {}
    for span in spans:
        if span.kind is SpanKind.SERVER and span.service == service:
            mix[span.operation] = mix.get(span.operation, 0.0) + 1.0
    return mix


def _rpcs_from_spans(
    spans: List[Span], service: str
) -> Dict[str, List[Tuple[str, str, float, float, Optional[int]]]]:
    """Per-handler downstream calls with parallel-group detection.

    Client spans under one server span whose start times coincide were
    issued concurrently (a fan-out); sequential calls start strictly
    after the previous response.
    """
    servers = {
        (s.trace_id, s.span_id): s
        for s in spans if s.kind is SpanKind.SERVER
    }
    callee_by_client: Dict[Tuple[int, int], Span] = {
        (s.trace_id, s.parent_id): s
        for s in spans
        if s.kind is SpanKind.SERVER and s.parent_id is not None
    }
    per_parent: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span.kind is not SpanKind.CLIENT or span.parent_id is None:
            continue
        parent = servers.get((span.trace_id, span.parent_id))
        if parent is None or parent.service != service:
            continue
        per_parent.setdefault((span.trace_id, span.parent_id), []).append(span)
    # Use the first complete parent execution per handler as the template.
    result: Dict[str, List[Tuple[str, str, float, float, Optional[int]]]] = {}
    for (trace_id, parent_id), clients in sorted(per_parent.items()):
        parent = servers[(trace_id, parent_id)]
        if parent.operation in result:
            continue
        clients.sort(key=lambda s: (s.start_time, s.span_id))
        calls: List[Tuple[str, str, float, float, Optional[int]]] = []
        group = 0
        last_start = None
        group_size = 0
        for client in clients:
            callee = callee_by_client.get((client.trace_id, client.span_id))
            if callee is None:
                continue
            concurrent = (last_start is not None
                          and abs(client.start_time - last_start) < 1e-9)
            if concurrent:
                group_size += 1
            else:
                group += 1
                group_size = 1
            last_start = client.start_time
            calls.append((
                callee.service,
                callee.operation,
                client.tags.get("request_bytes", 0.0),
                client.tags.get("response_bytes", 0.0),
                group,
            ))
        # Collapse singleton groups to "sequential" (no parallel group).
        group_counts: Dict[int, int] = {}
        for _, _, _, _, g in calls:
            group_counts[g] = group_counts.get(g, 0) + 1
        result[parent.operation] = [
            (t, op, rq, rs, g if group_counts[g] > 1 else None)
            for (t, op, rq, rs, g) in calls
        ]
    return result


def _tally_instructions(
    table: Dict[str, IformStats],
    names: List[str],
    drawn: np.ndarray,
    rep_elements: float,
) -> None:
    """Fold one block's drawn iform indices into the per-iform table.

    New iforms enter in the order they were first drawn, and REP
    element counts are added one sample at a time, so the table keeps
    everything the raw ``(iform, rep)`` sample list told its reader.
    """
    indices, first, counts = np.unique(drawn, return_index=True,
                                       return_counts=True)
    for position in np.argsort(first):
        name = names[indices[position]]
        count = int(counts[position])
        stats = table.get(name)
        if stats is None:
            stats = table[name] = IformStats()
        stats.samples += count
        if rep_elements > 0 and name.startswith(("REP", "REPNZ")):
            for _ in range(count):
                stats.rep_sum += rep_elements
            stats.rep_samples += count


def _collect_block_artifacts(
    block: BlockSpec,
    artifacts: ServiceArtifacts,
    arenas: Dict[str, _AddressArena],
    regions: Dict[Tuple[str, object], _RegionAccumulator],
    budget: ProfilingBudget,
    rng: np.random.Generator,
) -> None:
    """Sample one block execution into the artifact streams."""
    iterations = max(1.0, block.iterations)
    # --- instruction stream sample (SDE) -------------------------------
    names = sorted(block.iform_counts)
    counts = np.array([block.iform_counts[n] for n in names], dtype=float)
    per_iter = counts.sum()
    if per_iter > 0:
        n_samples = int(min(budget.max_istream_per_block / 4,
                            max(16, per_iter / 8)))
        probs = counts / counts.sum()
        drawn = rng.choice(len(names), size=n_samples, p=probs)
        _tally_instructions(artifacts.instruction_table, names, drawn,
                            block.rep_elements)
    # --- data address trace (Valgrind, spatially sampled) ---------------
    for spec_index, spec in enumerate(block.mem):
        total = spec.accesses * iterations
        if total < 1:
            continue
        key = ("d", (block.name, spec_index))
        accumulator = regions.get(key)
        if accumulator is None:
            from repro.hw.ir import MemPattern as _MP
            arena = (arenas["shared"] if spec.shared_frac > 0
                     else arenas["private"])
            accumulator = _RegionAccumulator(
                arena.region(spec.wset_bytes), spec.wset_bytes,
                shared_frac=spec.shared_frac,
                chase_frac=(1.0 if spec.pattern is _MP.POINTER_CHASE
                            else 0.0))
            regions[key] = accumulator
        length = int(min(budget.max_accesses_per_spec, max(8, total)))
        accumulator.record(spec.pattern, total, length, rng)
    # --- instruction address trace ---------------------------------------
    code_bytes = max(64, block.static_code_bytes())
    key = ("i", block.name)
    accumulator = regions.get(key)
    if accumulator is None:
        accumulator = _RegionAccumulator(
            arenas["text"].region(code_bytes), code_bytes)
        regions[key] = accumulator
    dynamic_instructions = per_iter * iterations
    accumulator.record_instruction_walk(
        dynamic_instructions,
        int(min(budget.max_istream_per_block, max(16, dynamic_instructions))))


def _name_hash(name: str) -> int:
    """A hash of ``name`` that is the same in every interpreter.

    Python's ``hash`` of a ``str`` is salted per process, so anything
    derived from it would make a profile's digest differ between runs.
    """
    return zlib.crc32(name.encode())


def _collect_branch_artifacts(
    block: BlockSpec,
    artifacts: ServiceArtifacts,
    budget: ProfilingBudget,
    rng: np.random.Generator,
    executions_scale: float,
    pcs: set,
) -> None:
    """Measure each sampled site's rates and tally them; ``pcs``
    collects the service's distinct site addresses."""
    code_base = (_name_hash(block.name) % (1 << 24)) << 8
    for pop_index, population in enumerate(block.branches):
        executions = population.executions * max(1.0, block.iterations)
        if executions <= 0:
            continue
        sites = int(min(budget.max_sites_per_population,
                        population.static_count))
        weight = executions * executions_scale / sites
        for site in range(sites):
            # Per-site statistics jitter around the population's.
            taken = float(np.clip(
                population.taken_rate + rng.normal(0, 0.02), 0.0, 1.0))
            trans = float(np.clip(
                population.transition_rate + rng.normal(0, 0.02), 0.0, 1.0))
            outcomes = generate_branch_outcomes(
                taken, trans, budget.branch_outcomes_per_site, rng)
            pcs.add(code_base + 64 * (pop_index * 97 + site))
            artifacts.branches.add(
                float(np.mean(outcomes)) if len(outcomes) else 0.0,
                (float(np.mean(outcomes[1:] != outcomes[:-1]))
                 if len(outcomes) >= 2 else 0.0),
                weight)


def _collect_dep_artifacts(
    block: BlockSpec,
    artifacts: ServiceArtifacts,
    budget: ProfilingBudget,
    rng: np.random.Generator,
) -> None:
    def sample_distance(hist: Optional[Histogram], default: float) -> float:
        if hist is None:
            return default
        edge = float(hist.sample(rng, 1)[0])
        # Jitter within the bin (the DCFG reports exact distances).
        return max(1.0, edge * float(rng.uniform(0.75, 1.25)))

    deps = block.deps
    # One sampler per distance kind for the whole block: same sorted key
    # order (hence identical draws) as rebuilding a Histogram per sample.
    raw_hist = Histogram(dict(deps.raw)) if deps.raw else None
    war_hist = Histogram(dict(deps.war)) if deps.war else None
    waw_hist = Histogram(dict(deps.waw)) if deps.waw else None
    for _ in range(budget.dep_samples_per_block):
        raw = sample_distance(raw_hist, default=24.0)
        war = sample_distance(war_hist, default=32.0)
        waw = sample_distance(waw_hist, default=48.0)
        artifacts.deps.add(raw, war, waw,
                           bool(rng.random() < deps.pointer_chase_frac))


def _call_tree_for_worker(spec: ServiceSpec) -> CallTree:
    """A worker's sampled call graph: the union over handlers it serves.

    Stack sampling over a profiling window observes every handler a
    worker executed, so all workers of one pool share (near-)identical
    aggregated call graphs.
    """
    loop = CallTree("thread_loop")
    loop.add(CallTree(spec.skeleton.wait_syscall()))
    for handler_name in sorted(spec.program.handlers):
        handler = spec.program.handler(handler_name)
        for op in handler.ops:
            if isinstance(op, SyscallOp):
                loop.add(CallTree(op.invocation.name))
            elif isinstance(op, ComputeOp):
                loop.add(CallTree(
                    f"fn_{_name_hash(op.block.name) % 99991:05d}"))
            elif isinstance(op, RpcOp):
                rpc = loop.add(CallTree("rpc_call"))
                rpc.add(CallTree("sendmsg"))
                rpc.add(CallTree("recv"))
    return loop


def _observe_threads(
    spec: ServiceSpec,
    connections: int,
    rng: np.random.Generator,
    artifacts: ServiceArtifacts,
) -> None:
    """Probe the service's threads at ``connections`` connections.

    Each observed call tree is looked up in (or added to) the service's
    shape table, and the observation keeps only its shape number.
    """
    shapes = artifacts.thread_shapes
    for cls in spec.skeleton.thread_classes:
        if cls.role == "worker":
            count = (min(connections, spec.skeleton.max_connections)
                     if cls.scales_with_connections else cls.count)
        else:
            count = cls.count
        for _ in range(max(1, count)):
            if cls.role == "worker":
                tree = _call_tree_for_worker(spec)
            elif cls.role == "acceptor":
                tree = CallTree.from_nested(
                    ("thread_loop",
                     [(spec.skeleton.wait_syscall(), []), ("accept", []),
                      ("epoll_ctl", [])]))
            else:
                tree = CallTree.from_nested(
                    ("thread_loop",
                     [("nanosleep", []),
                      (f"fn_{int(rng.integers(0, 99991)):05d}", [])]))
            # Observation noise: an extra frame shows up occasionally.
            if rng.random() < 0.2:
                tree.add(CallTree("gettimeofday"))
            try:
                shape = shapes.index(tree)
            except ValueError:
                shape = len(shapes)
                shapes.append(tree)
            # A thread spawned per connection that lives for under 95%
            # of the window is short-lived.
            artifacts.threads.append(ThreadObservation(
                shape=shape,
                connections=connections,
                trigger=cls.trigger.value,
                short_lived=(cls.scales_with_connections
                             and float(rng.uniform(0.6, 1.0)) < 0.95),
            ))


def _collect_service_artifacts(
    spec: ServiceSpec,
    mix: Dict[str, float],
    rpcs: Dict[str, List[Tuple[str, float, float, Optional[int]]]],
    counters,
    observed_qps: float,
    connections: int,
    budget: ProfilingBudget,
    rng_stream: RngStream,
    closed_loop: bool = False,
) -> ServiceArtifacts:
    rng = rng_stream.rng("service", spec.name)
    artifacts = ServiceArtifacts(service=spec.name)
    artifacts.counters = counters
    artifacts.observed_handler_mix = dict(mix)
    artifacts.observed_qps = observed_qps
    artifacts.observed_connections = connections
    artifacts.observed_closed_loop = closed_loop
    artifacts.observed_resident_bytes = spec.program.resident_bytes
    # The binary's hot text size is observable (objdump/perf report it).
    artifacts.observed_hot_code_bytes = spec.program.hot_code_bytes
    artifacts.file_sizes = dict(spec.files)
    artifacts.rpc_calls = rpcs
    arenas = {
        "private": _AddressArena(0x10_0000_0000),
        "shared": _AddressArena(0x20_0000_0000),
        "text": _AddressArena(0x40_0000),
    }
    regions: Dict[Tuple[str, object], _RegionAccumulator] = {}
    mix_hist = Histogram(dict(mix) or {
        name: 1.0 for name in spec.program.handlers})
    names, probs = mix_hist.keys_and_probs()
    branch_done: set = set()
    branch_pcs: set = set()
    wait_invocation = SyscallInvocation(spec.skeleton.wait_syscall())
    for seq in range(budget.sampled_requests):
        handler_name = str(names[rng.choice(len(names), p=probs)])
        handler = spec.program.handler(handler_name)
        request_instructions = 0.0
        # SystemTap sees the wait syscall the skeleton blocks in.
        artifacts.syscall_log.append((seq, wait_invocation))
        for op in handler.ops:
            if isinstance(op, ComputeOp):
                _collect_block_artifacts(
                    op.block, artifacts, arenas, regions, budget, rng)
                request_instructions += op.block.instructions_per_request
                if op.block.name not in branch_done:
                    branch_done.add(op.block.name)
                    weight = mix_hist.probability(handler_name)
                    _collect_branch_artifacts(
                        op.block, artifacts, budget, rng,
                        executions_scale=max(weight, 1e-6), pcs=branch_pcs)
                    _collect_dep_artifacts(op.block, artifacts, budget, rng)
            elif isinstance(op, SyscallOp):
                artifacts.syscall_log.append((seq, op.invocation))
            elif isinstance(op, RpcOp):
                # Client-side syscalls SystemTap sees during an RPC. An
                # asynchronous client registers the response socket with
                # its reactor instead of blocking in recv on the same
                # thread — the observable signature of §4.3.1's async
                # client model.
                artifacts.syscall_log.append(
                    (seq, SyscallInvocation("sendmsg",
                                            nbytes=op.request_bytes)))
                if (spec.skeleton.client_model
                        is ClientNetworkModel.ASYNCHRONOUS):
                    artifacts.syscall_log.append(
                        (seq, SyscallInvocation("epoll_ctl")))
                artifacts.syscall_log.append(
                    (seq, SyscallInvocation("recv",
                                            nbytes=op.response_bytes)))
        artifacts.instructions_per_request.append(request_instructions)
        artifacts.handler_of_request[seq] = handler_name
        artifacts.requests_observed += 1
    artifacts.branches.static_sites = len(branch_pcs)
    # Reduce each region's sampled trace to its working-set statistics.
    for (side, _), accumulator in regions.items():
        if side == "d":
            stats = accumulator.finalize(DATA_SWEEP_SIZES)
            found = artifacts.data_regions
        else:
            stats = accumulator.finalize(INSTR_SWEEP_SIZES)
            found = artifacts.instr_regions
        if stats is not None:
            found.append(stats)
    # Thread probing "experiments with different connections" (§4.3.2).
    _observe_threads(spec, connections, rng, artifacts)
    _observe_threads(spec, max(2, connections // 2), rng, artifacts)
    return artifacts


def _collect_tier(job: tuple) -> ServiceArtifacts:
    """One tier's artifact collection (a picklable pool task)."""
    return _collect_service_artifacts(*job)


def profile_deployment(
    deployment: Deployment,
    load: LoadSpec,
    config: ExperimentConfig,
    budget: Optional[ProfilingBudget] = None,
    seed: int = 17,
    *,
    pool: Optional[WorkerPool] = None,
) -> ApplicationProfile:
    """Run one instrumented profiling session over a deployment.

    The window is ``budget.profile_duration_s``, doubled (up to
    :data:`MAX_WINDOW_DOUBLINGS` times) until the entry service has
    served every operation its request mix gives positive weight: a
    clone of a window that never saw an entry operation would lack
    that whole request path. Each tier's artifacts are collected in
    ``pool`` when one is given; the profile is the same either way.
    """
    budget = budget if budget is not None else ProfilingBudget()
    entry = deployment.services[deployment.entry_service]
    declared = [operation for operation, weight in entry.request_mix.items()
                if weight > 0]
    for doubling in range(MAX_WINDOW_DOUBLINGS + 1):
        tracer = Tracer()
        instrumented = replace(
            config,
            tracer=tracer,
            duration_s=budget.profile_duration_s * 2 ** doubling,
        )
        result = run_experiment(deployment, load, instrumented)
        spans = tracer.finished_spans()
        served = _handler_mix_from_spans(spans, entry.name)
        missing = [operation for operation in declared
                   if operation not in served]
        if not missing:
            break
    else:
        raise ProfilingError(
            f"profiling never saw {entry.name!r} serve {missing[0]!r} "
            f"(window {instrumented.duration_s:g} s, "
            f"{2 ** MAX_WINDOW_DOUBLINGS}x the budget's)")
    stream = RngStream(seed, "profiling")
    connections = (load.connections if load.kind == "closed" else 32)
    jobs: Dict[str, tuple] = {}
    for name, spec in deployment.services.items():
        mix = _handler_mix_from_spans(spans, name)
        if not mix:
            # The tier saw no traffic during profiling; fall back to the
            # declared handler set with uniform weights.
            mix = {handler: 1.0 for handler in spec.program.handlers}
        rpcs = _rpcs_from_spans(spans, name)
        counters = result.service(name)
        observed_qps = counters.requests / max(result.duration_s, 1e-9)
        jobs[name] = (spec, mix, rpcs, counters, observed_qps, connections,
                      budget, stream.child(name), load.kind == "closed")
    # Each tier draws only from its own stream, so the tiers collect in
    # any order, in any process; the profile keeps deployment order.
    services: Dict[str, ServiceArtifacts] = dict.fromkeys(jobs)
    fan_out(pool, _collect_tier, jobs, services.__setitem__)
    return ApplicationProfile(
        entry_service=deployment.entry_service,
        services=services,
        topology=analyze_topology(spans),
        platform_name=config.platform.name,
        profiling_qps=(load.qps if load.kind == "open" else 0.0),
    )


# --------------------------------------------------------------------- #
# persistence (digest-stamped envelopes)
# --------------------------------------------------------------------- #
#: schema name stamped into persisted ApplicationProfile envelopes
PROFILE_SCHEMA = "application-profile"
#: payload version of the pickled ApplicationProfile layout, shared by
#: every store of profiles (bump when the layout changes; files of any
#: other version are misses)
PROFILE_VERSION = 6


def save_profile(path: str, profile: ApplicationProfile) -> str:
    """Persist a whole profiling session atomically, digest-stamped.

    One file per session: every tier's artifacts plus the topology, so
    :meth:`~repro.core.cloner.DittoCloner.clone_from_profile` can
    re-run later — on another machine, against another platform model —
    without touching the original deployment again.
    """
    from repro.validation import integrity

    return integrity.save_object(path, profile, schema=PROFILE_SCHEMA,
                                 version=PROFILE_VERSION)


def load_profile(path: str) -> ApplicationProfile:
    """Load a session saved by :func:`save_profile`.

    Raises :class:`~repro.util.errors.ArtifactIntegrityError` (after
    quarantining the file) when the envelope fails verification, and
    also (leaving the file in place) when it holds another payload
    version.
    """
    from repro.validation import integrity

    loaded = integrity.load_exact(path, schema=PROFILE_SCHEMA,
                                  version=PROFILE_VERSION)
    if not isinstance(loaded, ApplicationProfile):
        raise ProfilingError(
            f"{path}: envelope holds {type(loaded).__name__}, "
            f"expected ApplicationProfile")
    return loaded
