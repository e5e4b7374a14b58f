"""Per-service runtime: workers, request handling, RPC client."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app.program import ComputeOp, RpcOp, SyscallOp
from repro.app.service import ServiceSpec
from repro.app.skeleton import ClientNetworkModel, ServerNetworkModel
from repro.hw.contention import ContentionFactors
from repro.hw.ir import BlockSpec
from repro.kernelsim.node import Node
from repro.kernelsim.syscalls import (
    SyscallInvocation,
    context_switch_block,
    kernel_block_for,
    kernel_code_footprint,
)
from repro.runtime.metrics import FOLD_CHUNK, ServiceMetrics
from repro.runtime.pricing import BlockPricer, PricingKey, code_reuse_steps
from repro.runtime.resilience import CircuitBreaker, ResilienceConfig
from repro.sim import Environment, Event, Store
from repro.telemetry.context import current_session
from repro.tracing.span import SpanKind
from repro.tracing.tracer import Tracer
from repro.util.errors import (
    CircuitOpenError,
    ConfigurationError,
    FaultInjectionError,
    LoadSheddedError,
    ReproError,
    RetryExhaustedError,
    RpcTimeoutError,
)
from repro.util.rng import RngStream

#: cache pollution accumulates while a worker sleeps: timer ticks, RCU,
#: and other processes walk the caches at roughly this rate, so short
#: idles only evict small L2s while long idles evict anything private.
IDLE_POLLUTION_BYTES_PER_S = 1.5e9
#: pollution saturates once everything private is evicted anyway
MAX_IDLE_POLLUTION_BYTES = 4 * 1024 * 1024
#: a worker idle longer than this redispatches with cold caches/predictor
COLD_IDLE_THRESHOLD_S = 100e-6
#: static branch sites contributed by the kernel's hot paths
KERNEL_STATIC_BRANCHES = 1500


@lru_cache(maxsize=8192)
def _cached_kernel_block(invocation: SyscallInvocation):
    return kernel_block_for(invocation)


# What a plan step does once its blocks are charged.
#: the request ends: flush the pending cycles
_END = 0
#: a receive: count the bytes the NIC delivered
_NET_RX = 1
#: a file read: page-cache lookup, flush plus disk read on a miss
_PAGE_READ = 2
#: a file write: page-cache write, flush plus disk write on a miss
_FILE_WRITE = 3
#: an fsync: flush plus a disk write of its bytes
_FSYNC = 4
#: a send: count the bytes, flush plus NIC transmit off-node
_SEND = 5
#: a group of RPCs issued together, awaited as one
_RPC = 6


class _Step:
    """One step of a compiled handler plan.

    ``blocks`` are charged back to back, then ``action`` runs. Only an
    action can yield, so a step's blocks always price and charge
    together. ``nbytes`` and ``file`` (a resolved
    :class:`~repro.kernelsim.filesystem.FileSpec`) belong to syscall
    actions; ``rpcs`` holds an RPC group's ``(op, process name)`` pairs.
    Steps hash by identity: they key the per-state pricing memo.
    """

    __slots__ = ("blocks", "action", "nbytes", "file", "rpcs")

    def __init__(self, blocks: Sequence[BlockSpec], action: int,
                 nbytes: float = 0.0, file=None,
                 rpcs: Tuple[Tuple[RpcOp, str], ...] = ()) -> None:
        self.blocks = tuple(blocks)
        self.action = action
        self.nbytes = nbytes
        self.file = file
        self.rpcs = rpcs


class _DelayedReply:
    """Queue entry answering a cross-node request after the wire latency.

    Two slots: at the handler's end T it schedules itself at
    T+latency, and there it succeeds the response. Nothing waits on the
    entry itself, so it needs neither a process nor a completion event.
    """

    __slots__ = ("response", "service", "_latency")

    def __init__(self, env: Environment, response: Event, latency: float,
                 service: str) -> None:
        self.response = response
        self.service = service
        self._latency: Optional[float] = latency
        env._push(self)

    @property
    def label(self) -> str:
        """What the entry is, for watchdog messages."""
        return f"cross-node reply from {self.service!r}"

    def fire(self, env: Environment) -> None:
        latency = self._latency
        if latency is not None:
            self._latency = None
            env._push_after(self, latency)
        else:
            self.response.succeed(env.now)


@dataclass
class Request:
    """One in-flight request."""

    handler: str
    response: Event
    src_node: str
    arrival: float
    trace_id: int = 0
    parent_span_id: Optional[int] = None


@dataclass
class NodeState:
    """Cross-service view of one node's software load."""

    node: Node
    active_threads: int = 0
    colocated_code_bytes: Dict[str, float] = field(default_factory=dict)
    colocated_resident_bytes: Dict[str, float] = field(default_factory=dict)

    def oversubscription(self) -> float:
        """Active software threads per core (>=1)."""
        return max(1.0, self.active_threads / max(1, self.node.cores))

    def other_code_bytes(self, service: str) -> float:
        """Hot code of co-located services other than ``service``."""
        return float(
            sum(b for name, b in self.colocated_code_bytes.items()
                if name != service)
        )

    def other_resident_pressure(self, service: str, llc_bytes: float) -> float:
        """LLC pressure from other services' resident data, capped per tier."""
        return float(
            sum(min(b, llc_bytes) for name, b in
                self.colocated_resident_bytes.items() if name != service)
        )


class ServiceRuntime:
    """Executes one service's skeleton and handlers on a node.

    Each handler is compiled once per runtime (and per cold/warm
    wakeup) into a plan of :class:`_Step` s. Charging a step appends its
    blocks' pricing rows (see :mod:`repro.runtime.pricing`) to the
    service's charge log and adds their cycles, one by one, to the
    request's pending CPU work. The log folds into :attr:`metrics` once
    it holds :data:`~repro.runtime.metrics.FOLD_CHUNK` charges and on
    :meth:`fold`, which the experiment calls when the run ends; until
    then ``metrics.timing`` lags the charges.
    """

    def __init__(
        self,
        env: Environment,
        spec: ServiceSpec,
        node: Node,
        node_state: NodeState,
        pricer: BlockPricer,
        tracer: Optional[Tracer] = None,
        base_factors: ContentionFactors = ContentionFactors(),
        connections_hint: int = 32,
        registry: Optional[Dict[str, "ServiceRuntime"]] = None,
        cross_node_latency_s: float = 30e-6,
        resilience: Optional[ResilienceConfig] = None,
        rng_stream: Optional[RngStream] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.node = node
        self.node_state = node_state
        self.pricer = pricer
        self.tracer = tracer
        self.base_factors = base_factors
        self.connections_hint = connections_hint
        self.registry = registry if registry is not None else {}
        self.cross_node_latency_s = cross_node_latency_s
        self.resilience = resilience
        # Per-downstream circuit breakers plus the jitter stream for
        # retry backoff, created only when resilience semantics are on —
        # a bare runtime draws no extra randomness.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._retry_rng = None
        if resilience is not None:
            stream = rng_stream if rng_stream is not None else RngStream(0)
            self._retry_rng = stream.rng("resilience", spec.name)
        self.queue: Store = Store(env, name=f"{spec.name}-queue")
        self.metrics = ServiceMetrics()
        #: pricing rows charged since the last fold, in charge order
        self._log: List[int] = []
        #: execution state -> (PricingKey, {step: (pricing rows, their
        #: cycles)}); the plans hold every step for the runtime's life
        self._state_rows: Dict[
            tuple, Tuple[PricingKey, Dict[_Step, Tuple[tuple, tuple]]]] = {}
        #: handler name -> compiled plan, for warm and cold wakeups
        self._warm_plans: Dict[str, Tuple[_Step, ...]] = {}
        self._cold_plans: Dict[str, Tuple[_Step, ...]] = {}
        self._serve_name = f"{spec.name}-serve"
        self.active = 0
        self._started = False
        # Telemetry timeline, bound once at construction (attach-time
        # guard): an untimed run pays no per-request check at all.
        self._timeline = env.timeline
        # Device-op entry points (generator-free continuations), resolved
        # once.
        self._cpu_execute = node.cpu.execute_op
        self._disk_io = node.disk.io_op
        self._nic_transmit = node.nic.transmit_op
        self._asynchronous = (spec.skeleton.client_model
                              is ClientNetworkModel.ASYNCHRONOUS)
        # Co-located tiers are fixed for the run, and so is their share
        # of every pricing key.
        self._llc_bytes = float(pricer.platform.llc.size_bytes)
        self._other_code_bytes = node_state.other_code_bytes(spec.name)
        self._other_pressure = node_state.other_resident_pressure(
            spec.name, self._llc_bytes)
        # Static execution-state ingredients.
        program = spec.program
        syscall_names: List[str] = [spec.skeleton.wait_syscall()]
        per_handler_kernel: Dict[str, float] = {}
        for hname, handler in program.handlers.items():
            names = [inv.name for inv in handler.syscalls]
            syscall_names.extend(names)
            per_handler_kernel[hname] = kernel_code_footprint(names)
        self._kernel_footprint = kernel_code_footprint(syscall_names)
        self._warm_reuse = (0.3 * program.hot_code_bytes
                            + 0.3 * self._kernel_footprint)
        self._cold_reuse = program.hot_code_bytes + self._kernel_footprint
        self._static_branches = (program.static_branch_sites()
                                 + KERNEL_STATIC_BRANCHES)
        # A cold wakeup first pays the context switch back in and the
        # wait syscall that blocked the worker.
        self._cold_blocks = (context_switch_block(), _cached_kernel_block(
            SyscallInvocation(spec.skeleton.wait_syscall())))
        self._background_step = _Step(program.background_blocks, _END)
        # Per-handler concurrent data footprint (for LLC competition).
        self._handler_footprint = {
            hname: handler.data_footprint_bytes()
            for hname, handler in program.handlers.items()
        }
        self._mean_footprint = (
            sum(self._handler_footprint.values())
            / max(1, len(self._handler_footprint))
        )
        # Register declared files with the node's VFS.
        for fname, size in spec.files.items():
            node.filesystem.create(fname, size)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn worker (and background) processes."""
        if self._started:
            raise ConfigurationError(f"{self.spec.name} already started")
        self._started = True
        workers = self.spec.skeleton.worker_threads(self.connections_hint)
        for index in range(workers):
            self.env.spawn(self._worker(index),
                           name=f"{self.spec.name}-worker-{index}")
        for cls in self.spec.skeleton.background_classes():
            if self.spec.program.background_blocks:
                self.env.spawn(self._background(cls),
                               name=f"{self.spec.name}-{cls.name}")

    # ------------------------------------------------------------------ #
    # request entry
    # ------------------------------------------------------------------ #
    def submit(
        self,
        handler: str,
        src_node: str = "client",
        trace_id: int = 0,
        parent_span_id: Optional[int] = None,
    ) -> Event:
        """Enqueue a request; returns the response event.

        Admission control happens here: a request for a crashed node
        fails immediately with
        :class:`~repro.util.errors.FaultInjectionError`, and — when the
        runtime carries a :class:`ResilienceConfig` with a queue bound —
        a request arriving at a full queue is shed with
        :class:`~repro.util.errors.LoadSheddedError` instead of growing
        the queue without bound.
        """
        if handler not in self.spec.program.handlers:
            self.spec.program.handler(handler)  # raises: unknown handler
        response = self.env.event()
        faults = self.env.faults
        if faults is not None and faults.node_down(self.node.name):
            self.metrics.failed_requests += 1
            response.fail(FaultInjectionError(
                f"{self.spec.name}: node {self.node.name} is down",
                kind="node_down", scope=self.node.name))
            return response
        if (self.resilience is not None
                and self.resilience.max_queue_depth is not None
                and len(self.queue) >= self.resilience.max_queue_depth):
            self.metrics.shed_requests += 1
            self._session_count(
                "ditto_requests_shed_total",
                "requests rejected at admission by load shedding",
                service=self.spec.name)
            response.fail(LoadSheddedError(
                f"{self.spec.name}: queue at shedding bound",
                service=self.spec.name, queue_depth=len(self.queue)))
            return response
        request = Request(
            handler=handler,
            response=response,
            src_node=src_node,
            arrival=self.env.now,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )
        self.queue.append(request)
        return response

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #
    def _worker(self, index: int):
        skeleton = self.spec.skeleton
        blocking = skeleton.server_model is ServerNetworkModel.BLOCKING

        def dispatch(request, cold, idle):
            """Serve one request; returns the event freeing this worker.

            Synchronous clients hold the worker for the whole handler.
            Asynchronous clients (§4.3.1) hand the downstream wait to the
            event loop: the worker frees as soon as the RPC group is
            issued, and the continuation (a callback) re-runs without
            occupying a worker slot.
            """
            release = self.env.event()
            self.env.spawn(
                self._serve(request, cold=cold, idle_s=idle,
                            worker_release=release),
                name=self._serve_name)
            return release

        while True:
            wait_start = self.env.now
            request = yield self.queue.get()
            idle = self.env.now - wait_start
            if blocking:
                idle = max(idle, 2 * COLD_IDLE_THRESHOLD_S)
            cold = idle > COLD_IDLE_THRESHOLD_S
            yield dispatch(request, cold, idle)
            if blocking:
                continue
            # Drain the epoll batch while it lasts: subsequent requests in
            # the same wakeup are warm (no context switch, hot i-cache).
            served = 1
            while len(self.queue) > 0 and served < skeleton.max_batch:
                request = yield self.queue.get()
                yield dispatch(request, False, 0.0)
                served += 1

    def _background(self, cls):
        step = self._background_step
        while True:
            yield self.env.timeout(cls.background_period_s)
            key, priced = self._rows_for(cold=True)
            charged = priced.get(step)
            if charged is None:
                charged = self._price(step, key, priced)
            self._log.extend(charged[0])
            if len(self._log) >= FOLD_CHUNK:
                self.fold()
            pending = 0.0
            for cycles in charged[1]:
                pending += cycles
            if pending > 0:
                try:
                    yield self._cpu_execute(pending)
                except FaultInjectionError:
                    # Node down: this period's background work is lost,
                    # the thread survives to run again after restart.
                    continue

    # ------------------------------------------------------------------ #
    # execution-state -> pricing key -> charges
    # ------------------------------------------------------------------ #
    def _rows_for(self, cold: bool, idle_s: float = 0.0
                  ) -> Tuple[PricingKey, Dict[_Step, Tuple[tuple, tuple]]]:
        """The (key, {step: (rows, cycles)}) memo of the current state.

        A pricing key depends only on ``cold``, this tier's and the
        node's active threads, and — for cold requests — the code reuse
        in the key's 64 KiB steps. Requests that agree on those share
        one memo entry, so the key is built, and each step priced, once
        per state.
        """
        if cold:
            reuse = (self._cold_reuse
                     + min(MAX_IDLE_POLLUTION_BYTES,
                           idle_s * IDLE_POLLUTION_BYTES_PER_S)
                     + self._other_code_bytes)
            state = (True, self.active, self.node_state.active_threads,
                     code_reuse_steps(reuse))
        else:
            reuse = self._warm_reuse
            state = (False, self.active, self.node_state.active_threads)
        entry = self._state_rows.get(state)
        if entry is None:
            entry = self._state_rows[state] = (
                self._pricing_key(cold, reuse), {})
        return entry

    def _price(self, step: _Step, key: PricingKey,
               priced: Dict[_Step, Tuple[tuple, tuple]]
               ) -> Tuple[tuple, tuple]:
        """Price ``step`` under ``key`` and memo its (rows, cycles).

        Blocks are priced in charge order, so the pricer sees the same
        sequence of first pricings as one charge per block would.
        """
        pricer = self.pricer
        rows = tuple([pricer.row(block, key) for block in step.blocks])
        row_cycles = pricer.row_cycles
        charged = priced[step] = (
            rows, tuple([row_cycles[row] for row in rows]))
        return charged

    def fold(self) -> None:
        """Fold the charge log into :attr:`metrics` and empty it."""
        if self._log:
            self.metrics.fold(self.pricer.table, self._log)
            self._log.clear()

    def _pricing_key(self, cold: bool, reuse: float) -> PricingKey:
        conc = max(1, self.active)
        llc_bytes = self._llc_bytes
        # Other in-flight requests and co-located tiers compete for LLC.
        pressure = ((conc - 1) * min(self._mean_footprint, llc_bytes)
                    + self._other_pressure)
        llc_dyn = max(0.2, llc_bytes / (llc_bytes + pressure))
        oversub = self.node_state.oversubscription()
        l2_dyn = max(0.3, 1.0 / (1.0 + 0.35 * (oversub - 1.0)))
        l1_dyn = max(0.5, 1.0 / (1.0 + 0.15 * (oversub - 1.0)))
        factors = self.base_factors
        return PricingKey.build(
            cold=cold,
            concurrency=conc,
            smt_contention=factors.smt_contention,
            cache_factors=(
                factors.l1i_factor * l1_dyn,
                factors.l1d_factor * l1_dyn,
                factors.l2_factor * l2_dyn,
                factors.llc_factor * llc_dyn,
            ),
            code_reuse_bytes=reuse,
            static_branch_sites=self._static_branches,
        )

    # ------------------------------------------------------------------ #
    # request execution
    # ------------------------------------------------------------------ #
    def _compile(self, handler_name: str, cold: bool) -> Tuple[_Step, ...]:
        """Compile a handler into its plan of steps, once per wakeup kind.

        Each step is the run of blocks charged up to the next op that
        does something besides charging — a receive, a file read or
        write, an fsync, a send, an RPC group, the end — plus that
        action. Kernel blocks, RPC client blocks and files are resolved
        here, so serving a request looks nothing up. A cold plan starts
        with the context switch and wait syscall of the wakeup.
        """
        handler = self.spec.program.handler(handler_name)
        filesystem = self.node.filesystem
        asynchronous = self._asynchronous
        steps: List[_Step] = []
        blocks: List[BlockSpec] = list(self._cold_blocks) if cold else []
        ops = handler.ops
        index = 0
        while index < len(ops):
            op = ops[index]
            if isinstance(op, ComputeOp):
                blocks.append(op.block)
                index += 1
            elif isinstance(op, SyscallOp):
                invocation = op.invocation
                blocks.append(_cached_kernel_block(invocation))
                device = invocation.spec.device
                nbytes = invocation.nbytes
                # Device-less calls (and disk calls naming no file,
                # other than fsync) are just blocks. Receives never
                # block; file reads and writes reach the disk only on
                # a page-cache miss.
                action = None
                file = None
                if device == "net_rx":
                    action = _NET_RX
                elif device == "disk" and invocation.file is not None:
                    file = filesystem.lookup(invocation.file)
                    action = _FILE_WRITE if invocation.write else _PAGE_READ
                elif device == "disk" and invocation.name == "fsync":
                    action = _FSYNC
                elif device == "net_tx":
                    action = _SEND
                if action is not None:
                    steps.append(_Step(blocks, action, nbytes, file))
                    blocks = []
                index += 1
            elif isinstance(op, RpcOp):
                group = [op]
                if op.parallel_group is not None:
                    while (index + len(group) < len(ops)
                           and isinstance(ops[index + len(group)], RpcOp)
                           and ops[index + len(group)].parallel_group
                           == op.parallel_group):
                        group.append(ops[index + len(group)])
                # Client-side kernel send work for every call in the
                # group; an asynchronous client additionally registers
                # each response socket with its reactor (epoll_ctl).
                for rpc in group:
                    blocks.append(_cached_kernel_block(SyscallInvocation(
                        "sendmsg", nbytes=rpc.request_bytes)))
                    if asynchronous:
                        blocks.append(_cached_kernel_block(
                            SyscallInvocation("epoll_ctl")))
                steps.append(_Step(blocks, _RPC, rpcs=tuple(
                    (rpc, f"rpc-{rpc.target_service}") for rpc in group)))
                # Client-side kernel receive work for the responses opens
                # the next step.
                blocks = [_cached_kernel_block(SyscallInvocation(
                    "recv", nbytes=rpc.response_bytes)) for rpc in group]
                index += len(group)
            else:  # pragma: no cover - exhaustive over Op union
                raise ConfigurationError(f"unknown op {op!r}")
        steps.append(_Step(blocks, _END))
        plan = tuple(steps)
        (self._cold_plans if cold else self._warm_plans)[handler_name] = plan
        return plan

    def _flush(self, cycles: float) -> Event:
        """Run ``cycles`` of pending work on a core (or yield a turn)."""
        if cycles > 0:
            return self._cpu_execute(cycles)
        return self.env.timeout(0.0)

    def _serve(self, request: Request, cold: bool, idle_s: float = 0.0,
               worker_release=None):
        self.active += 1
        self.node_state.active_threads += 1
        env = self.env
        metrics = self.metrics
        serve_start = env.now
        plan = (self._cold_plans if cold else self._warm_plans).get(
            request.handler)
        if plan is None:
            plan = self._compile(request.handler, cold)
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                request.trace_id, self.spec.name, request.handler,
                SpanKind.SERVER, serve_start,
                parent_id=request.parent_span_id)
        key, priced = self._rows_for(cold, idle_s)
        log = self._log
        pending = 0.0  # cycles awaiting a CPU grant
        if cold:
            metrics.cold_wakeups += 1
            metrics.context_switches += 1
            self.node.cpu.context_switches += 1

        loopback = request.src_node == self.node.name
        failure: Optional[ReproError] = None
        try:
            for step in plan:
                charged = priced.get(step)
                if charged is None:
                    charged = self._price(step, key, priced)
                log.extend(charged[0])
                if len(log) >= FOLD_CHUNK:
                    self.fold()
                # One add per block, left to right: the float sum must
                # round exactly as one charge per block did.
                for cycles in charged[1]:
                    pending += cycles
                action = step.action
                if action == _END:
                    yield self._flush(pending)
                elif action == _NET_RX:
                    metrics.net_rx_bytes += step.nbytes
                    self.node.nic.account_rx(step.nbytes)
                elif action == _PAGE_READ:
                    miss = self.node.filesystem.page_cache.read(
                        step.file, step.nbytes)
                    if miss > 0:
                        yield self._flush(pending)
                        pending = 0.0
                        yield self._disk_io(miss, write=False)
                        metrics.disk_read_bytes += miss
                elif action == _SEND:
                    metrics.net_tx_bytes += step.nbytes
                    if loopback:
                        # Same-node peer: the payload never hits the wire.
                        self.node.nic.tx_bytes += step.nbytes
                    else:
                        yield self._flush(pending)
                        pending = 0.0
                        yield self._nic_transmit(step.nbytes)
                elif action == _RPC:
                    # Synchronous clients hold the worker for the whole
                    # handler. An event-driven client hands the
                    # downstream wait to its reactor, not to a worker
                    # slot (§4.3.1).
                    if (self._asynchronous and worker_release is not None
                            and not worker_release.triggered):
                        worker_release.succeed(None)
                    yield self._flush(pending)
                    pending = 0.0
                    yield env.all_of([
                        env.process(self._one_rpc(rpc, request, span),
                                    name=name)
                        for rpc, name in step.rpcs])
                elif action == _FILE_WRITE:
                    miss = self.node.filesystem.page_cache.write(
                        step.file, step.nbytes)
                    if miss > 0:
                        yield self._flush(pending)
                        pending = 0.0
                        yield self._disk_io(miss, write=True)
                        metrics.disk_write_bytes += miss
                else:  # _FSYNC
                    yield self._flush(pending)
                    pending = 0.0
                    yield self._disk_io(step.nbytes, write=True)
                    metrics.disk_write_bytes += step.nbytes
        except ConfigurationError:
            raise
        except ReproError as error:
            # An injected fault, exhausted retry budget or open breaker
            # killed this request. The handler aborts — remaining ops
            # and unflushed cycles die with it — but the worker, the
            # metrics and the caller all stay consistent: the response
            # event fails with the error so the client can classify it.
            failure = error
            metrics.failed_requests += 1
        if worker_release is not None and not worker_release.triggered:
            worker_release.succeed(None)
        if failure is None:
            metrics.requests += 1
        self.active -= 1
        self.node_state.active_threads -= 1
        timeline = self._timeline
        if timeline is not None:
            detail = dict(queued=serve_start - request.arrival, cold=cold)
            if failure is not None:
                detail["error"] = type(failure).__name__
            timeline.complete(
                self.spec.name, request.handler, serve_start,
                env.now - serve_start, **detail)
        if span is not None:
            span.finish(env.now)
        if failure is not None:
            if not request.response.triggered:
                request.response.fail(failure)
        elif not loopback:
            _DelayedReply(env, request.response,
                          self.cross_node_latency_s, self.spec.name)
        else:
            request.response.succeed(env.now)

    def _one_rpc(self, rpc: RpcOp, request: Request, parent_span):
        target = self.registry.get(rpc.target_service)
        if target is None:
            raise ConfigurationError(
                f"{self.spec.name} calls unknown service "
                f"{rpc.target_service!r}"
            )
        if self.resilience is None:
            yield from self._rpc_attempt(rpc, request, parent_span, target,
                                         attempt=0, timeout_s=None)
            return
        yield from self._resilient_rpc(rpc, request, parent_span, target)

    def _resilient_rpc(self, rpc: RpcOp, request: Request, parent_span,
                       target: "ServiceRuntime"):
        """Timeout + retry-with-backoff + circuit breaker around one RPC.

        Retries are at-least-once: a timed-out attempt's request may
        still complete downstream (its stale response event simply has
        no waiter), exactly like a real RPC mesh.
        """
        policy = self.resilience.retry
        breaker = self._breakers.get(rpc.target_service)
        if breaker is None:
            breaker = CircuitBreaker(
                self.env, rpc.target_service,
                failure_threshold=self.resilience.breaker_failure_threshold,
                recovery_s=self.resilience.breaker_recovery_s)
            self._breakers[rpc.target_service] = breaker
        last_error: Optional[ReproError] = None
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            if not breaker.allow():
                self.metrics.circuit_rejections += 1
                self._session_count(
                    "ditto_rpc_circuit_rejections_total",
                    "RPC calls rejected by an open circuit breaker",
                    service=self.spec.name, target=rpc.target_service)
                raise CircuitOpenError(
                    f"{self.spec.name} -> {rpc.target_service}: "
                    f"circuit open", target=rpc.target_service)
            try:
                yield from self._rpc_attempt(
                    rpc, request, parent_span, target, attempt=attempt,
                    timeout_s=self.resilience.rpc_timeout_s)
            except ConfigurationError:
                raise
            except ReproError as error:
                breaker.record_failure()
                last_error = error
                if isinstance(error, RpcTimeoutError):
                    self.metrics.rpc_timeouts += 1
                    self._session_count(
                        "ditto_rpc_timeouts_total",
                        "RPC attempts that exceeded their timeout",
                        service=self.spec.name, target=rpc.target_service)
                if attempt >= policy.max_attempts:
                    break
                self.metrics.rpc_retries += 1
                self._session_count(
                    "ditto_rpc_retries_total",
                    "RPC re-attempts after a failed attempt",
                    service=self.spec.name, target=rpc.target_service)
                backoff = policy.backoff_s(attempt, self._retry_rng)
                if backoff > 0:
                    yield self.env.timeout(backoff)
            else:
                breaker.record_success()
                return
        raise RetryExhaustedError(
            f"{self.spec.name} -> {rpc.target_service}: "
            f"{attempt} attempts failed",
            attempts=attempt, last_error=last_error) from last_error

    def _rpc_attempt(self, rpc: RpcOp, request: Request, parent_span,
                     target: "ServiceRuntime", attempt: int,
                     timeout_s: Optional[float]):
        """One try of one RPC; ``attempt`` 0 means the bare legacy path."""
        client_span = None
        if self.tracer is not None:
            tags = {"request_bytes": rpc.request_bytes,
                    "response_bytes": rpc.response_bytes}
            if attempt:
                tags["attempt"] = attempt
            client_span = self.tracer.start_span(
                request.trace_id, self.spec.name,
                f"call_{rpc.target_service}", SpanKind.CLIENT, self.env.now,
                parent_id=parent_span.span_id, tags=tags)
        try:
            self.metrics.net_tx_bytes += rpc.request_bytes
            if target.node.name != self.node.name:
                # Request serialisation on our NIC, then the wire.
                yield self._nic_transmit(rpc.request_bytes)
                yield self.env.timeout(self.cross_node_latency_s)
            else:
                self.node.nic.tx_bytes += rpc.request_bytes
            target.metrics.net_rx_bytes += rpc.request_bytes
            target.node.nic.account_rx(rpc.request_bytes)
            response = target.submit(
                rpc.handler,
                src_node=self.node.name,
                trace_id=request.trace_id,
                parent_span_id=(client_span.span_id
                                if client_span is not None else None),
            )
            if timeout_s is None:
                yield response
            else:
                yield self.env.any_of([response,
                                       self.env.timeout(timeout_s)])
                if not response.triggered:
                    if client_span is not None:
                        client_span.tags["timed_out"] = True
                    raise RpcTimeoutError(
                        f"{self.spec.name} -> {rpc.target_service}: "
                        f"no response within {timeout_s:g}s",
                        target=rpc.target_service, timeout_s=timeout_s)
            self.metrics.net_rx_bytes += rpc.response_bytes
        except ReproError as error:
            if client_span is not None:
                client_span.tags.setdefault("error",
                                            type(error).__name__)
            raise
        finally:
            if client_span is not None:
                client_span.finish(self.env.now)

    def _session_count(self, name: str, help_text: str,
                       **labels: str) -> None:
        """Bump a telemetry-registry counter when a session is active."""
        session = current_session()
        if session is not None:
            session.registry.counter(
                name, help_text, tuple(sorted(labels))).inc(1, **labels)
