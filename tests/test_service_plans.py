"""Compiled handler plans charge exactly what one charge per op did.

``ServiceRuntime`` compiles each handler into steps (blocks charged
back to back, then one action) and charges a step from a per-state
memo of its pricing rows and cycles. The reference below is a copy of
the per-op charge loop the plans replaced, kept here (not in ``src/``)
as the oracle. Two identical worlds serve the same request sequence,
one through the plan and one through the reference, and must agree on
every logged pricing row, the ``float.hex`` of the pending cycles at
every flush, every device call and every side effect.
"""

from typing import List

import pytest

from repro import (PLATFORM_A, build_memcached, build_mongodb, build_nginx,
                   build_redis, build_social_network)
from repro.app.program import ComputeOp, RpcOp, SyscallOp
from repro.app.service import ServiceSpec
from repro.app.workloads.asyncgw import async_gateway_deployment
from repro.kernelsim.node import Node
from repro.kernelsim.syscalls import SyscallInvocation, context_switch_block
from repro.runtime.metrics import FOLD_CHUNK
from repro.runtime.pricing import BlockPricer
from repro.runtime.service import (NodeState, Request, ServiceRuntime,
                                   _cached_kernel_block, _DelayedReply)
from repro.sim import Environment, Event
from repro.tracing.tracer import Tracer
from repro.util.errors import ConfigurationError, ReproError


# --------------------------------------------------------------------- #
# the per-op reference
# --------------------------------------------------------------------- #
def reference_serve(rt: ServiceRuntime, request: Request, cold: bool,
                    idle_s: float, worker_release, cold_blocks):
    """The per-op ``_serve`` charge loop the compiled plans replaced."""
    rt.active += 1
    rt.node_state.active_threads += 1
    handler = rt.spec.program.handler(request.handler)
    key = rt._rows_for(cold, idle_s)[0]
    pricer = rt.pricer
    rows = {}
    pending = [0.0]

    def charge(block):
        row = rows.get(id(block))
        if row is None:
            row = rows[id(block)] = pricer.row(block, key)
        rt._log.append(row)
        if len(rt._log) >= FOLD_CHUNK:
            rt.fold()
        pending[0] += pricer.row_cycles[row]

    def flush():
        cycles, pending[0] = pending[0], 0.0
        rt.record(("flush", cycles.hex()))
        if cycles > 0:
            return rt._cpu_execute(cycles)
        return rt.env.timeout(0.0)

    if cold:
        rt.metrics.cold_wakeups += 1
        rt.metrics.context_switches += 1
        rt.node.cpu.context_switches += 1
        for block in cold_blocks:
            charge(block)
    loopback = request.src_node == rt.node.name
    failure = None
    try:
        index = 0
        ops = handler.ops
        while index < len(ops):
            op = ops[index]
            if isinstance(op, ComputeOp):
                charge(op.block)
                index += 1
            elif isinstance(op, SyscallOp):
                invocation = op.invocation
                charge(_cached_kernel_block(invocation))
                device = invocation.spec.device
                if device == "net_rx":
                    rt.metrics.net_rx_bytes += invocation.nbytes
                    rt.node.nic.account_rx(invocation.nbytes)
                elif (device == "disk" and invocation.file is not None
                      and not invocation.write):
                    miss = rt.node.filesystem.read(invocation.file,
                                                   invocation.nbytes)
                    if miss > 0:
                        yield flush()
                        yield rt._disk_io(miss, write=False)
                        rt.metrics.disk_read_bytes += miss
                elif device is not None:
                    yield from _reference_device_syscall(
                        rt, invocation, flush, loopback)
                index += 1
            elif isinstance(op, RpcOp):
                group = [op]
                if op.parallel_group is not None:
                    while (index + len(group) < len(ops)
                           and isinstance(ops[index + len(group)], RpcOp)
                           and ops[index + len(group)].parallel_group
                           == op.parallel_group):
                        group.append(ops[index + len(group)])
                if (rt._asynchronous and worker_release is not None
                        and not worker_release.triggered):
                    worker_release.succeed(None)
                for rpc in group:
                    charge(_cached_kernel_block(SyscallInvocation(
                        "sendmsg", nbytes=rpc.request_bytes)))
                    if rt._asynchronous:
                        charge(_cached_kernel_block(
                            SyscallInvocation("epoll_ctl")))
                yield flush()
                yield rt.env.all_of([
                    rt.env.process(rt._one_rpc(rpc, request, None))
                    for rpc in group])
                for rpc in group:
                    charge(_cached_kernel_block(SyscallInvocation(
                        "recv", nbytes=rpc.response_bytes)))
                index += len(group)
            else:
                raise ConfigurationError(f"unknown op {op!r}")
        yield flush()
    except ConfigurationError:
        raise
    except ReproError as error:
        failure = error
        rt.metrics.failed_requests += 1
    if worker_release is not None and not worker_release.triggered:
        worker_release.succeed(None)
    if failure is None:
        rt.metrics.requests += 1
    rt.active -= 1
    rt.node_state.active_threads -= 1
    if failure is not None:
        request.response.fail(failure)
    elif not loopback:
        _DelayedReply(rt.env, request.response, rt.cross_node_latency_s,
                      rt.spec.name)
    else:
        request.response.succeed(rt.env.now)


def _reference_device_syscall(rt, invocation, flush, loopback):
    device = invocation.spec.device
    if device == "disk" and invocation.file is not None:
        miss = rt.node.filesystem.write(invocation.file, invocation.nbytes)
        if miss > 0:
            yield flush()
            yield rt._disk_io(miss, write=True)
            rt.metrics.disk_write_bytes += miss
    elif device == "disk" and invocation.name == "fsync":
        yield flush()
        yield rt._disk_io(invocation.nbytes, write=True)
        rt.metrics.disk_write_bytes += invocation.nbytes
    elif device == "net_tx":
        rt.metrics.net_tx_bytes += invocation.nbytes
        if loopback:
            rt.node.nic.tx_bytes += invocation.nbytes
        else:
            yield flush()
            yield rt._nic_transmit(invocation.nbytes)


# --------------------------------------------------------------------- #
# two worlds serving the same requests
# --------------------------------------------------------------------- #
class _Release(Event):
    """A worker-release event that records when it is succeeded."""

    def __init__(self, env, record):
        super().__init__(env)
        self._record = record

    def succeed(self, value=None):
        self._record(("release",))
        return super().succeed(value)


class _World:
    """One service runtime on its own node, every device call recorded.

    Devices run for real; the runtime's entry points to them are wrapped
    so each call (with the ``float.hex`` of its argument) lands in
    ``records`` in program order. An RPC is answered after a zero
    timeout instead of reaching another service.
    """

    def __init__(self, spec: ServiceSpec, page_cache_bytes, plan: bool):
        self.env = env = Environment()
        self.node = node = Node(env, PLATFORM_A, name="node0",
                                page_cache_bytes=page_cache_bytes)
        self.rt = rt = ServiceRuntime(
            env=env, spec=spec, node=node, node_state=NodeState(node=node),
            pricer=BlockPricer(PLATFORM_A), tracer=Tracer(sample_rate=0.0))
        self.plan = plan
        self.records: List[tuple] = []
        self.rows: List[int] = []
        self.cold_blocks = (context_switch_block(), _cached_kernel_block(
            SyscallInvocation(spec.skeleton.wait_syscall())))
        record = self.records.append
        rt.record = record
        cpu, disk, nic = rt._cpu_execute, rt._disk_io, rt._nic_transmit

        def cpu_execute(cycles):
            record(("cpu", cycles.hex()))
            return cpu(cycles)

        def disk_io(nbytes, write=False):
            record(("disk", float(nbytes).hex(), write))
            return disk(nbytes, write=write)

        def nic_transmit(nbytes):
            record(("nic", float(nbytes).hex()))
            return nic(nbytes)

        def flush(cycles):
            record(("flush", cycles.hex()))
            return ServiceRuntime._flush(rt, cycles)

        def one_rpc(rpc, request, span):
            record(("rpc", rpc.target_service, rpc.handler))
            yield env.timeout(0.0)

        def fold():
            self.rows.extend(rt._log)
            rt._log.clear()

        rt._cpu_execute = cpu_execute
        rt._disk_io = disk_io
        rt._nic_transmit = nic_transmit
        rt._flush = flush
        rt._one_rpc = one_rpc
        rt.fold = fold

    def serve(self, handler: str, cold: bool, idle_s: float, src_node: str):
        env, rt = self.env, self.rt
        request = Request(handler=handler, response=env.event(),
                          src_node=src_node, arrival=env.now)
        release = _Release(env, self.records.append)
        if self.plan:
            env.spawn(rt._serve(request, cold=cold, idle_s=idle_s,
                                worker_release=release))
        else:
            env.spawn(reference_serve(rt, request, cold, idle_s, release,
                                      self.cold_blocks))
        env.run()
        rt.fold()
        assert request.response.triggered
        self.records.append(("end", env.now.hex(), request.response.ok))

    def state(self):
        """Everything a request could have changed, comparably."""
        rt, node = self.rt, self.node
        cache = node.filesystem.page_cache
        return {
            "records": list(self.records),
            "rows": list(self.rows),
            "priced": [value.hex() for row in self.rows
                       for value in rt.pricer.table[row].tolist()],
            "metrics": {name: (value.hex() if isinstance(value, float)
                               else value)
                        for name, value in vars(rt.metrics).items()
                        if name != "timing"},
            "nic": (node.nic.tx_bytes.hex(), node.nic.rx_bytes.hex()),
            "cache": sorted((name, value.hex())
                            for name, value in cache._resident.items()),
            "cpu": (node.cpu.busy_seconds.hex(), node.cpu.context_switches),
            "disk": (float(node.disk.read_bytes).hex(),
                     float(node.disk.write_bytes).hex()),
            "threads": (rt.active, rt.node_state.active_threads),
        }


def _generated_clone() -> ServiceSpec:
    from repro.core.body_gen import generate_program
    from repro.core.skeleton_gen import generate_skeleton
    from tests._feature_factory import make_features

    features = make_features(service="clone")
    program, files = generate_program(features)
    return ServiceSpec(
        name="clone",
        skeleton=generate_skeleton(features.threads, features.network),
        program=program, files=files)


def _with_handler(spec: ServiceSpec, name: str, ops) -> ServiceSpec:
    import dataclasses

    handler = next(iter(spec.program.handlers.values()))
    return dataclasses.replace(spec, program=dataclasses.replace(
        spec.program, handlers={**spec.program.handlers,
                                name: dataclasses.replace(
                                    handler, name=name, ops=tuple(ops))}))


def _journaled_mongodb() -> ServiceSpec:
    """MongoDB plus a handler that writes, syncs and calls device-less
    and file-less disk syscalls: the actions no shipped workload has."""
    spec = build_mongodb()
    ops = next(iter(spec.program.handlers.values())).ops
    calls = (
        SyscallInvocation("pwrite", nbytes=16384, file="collection",
                          write=True),
        SyscallInvocation("fsync", nbytes=4096),
        SyscallInvocation("read", nbytes=512),
        SyscallInvocation("gettimeofday"),
        SyscallInvocation("write", nbytes=2048, file="collection",
                          write=True),
    )
    return _with_handler(spec, "journal", ops[:3] + tuple(
        SyscallOp(call) for call in calls) + ops[3:])


def _services():
    cases = {"mongodb-journal": _journaled_mongodb()}
    for build in (build_memcached, build_redis, build_nginx, build_mongodb):
        spec = build()
        cases[spec.name] = spec
    for name, spec in build_social_network().items():
        cases[f"socialnet/{name}"] = spec
    for name, spec in async_gateway_deployment().services.items():
        cases[f"asyncgw/{name}"] = spec
    cases["generated-clone"] = _generated_clone()
    return cases


SERVICES = _services()


@pytest.mark.parametrize("page_cache_bytes", [None, 64 * 1024],
                         ids=["warm-cache", "tiny-cache"])
@pytest.mark.parametrize("name", sorted(SERVICES))
def test_plan_charges_like_per_op_loop(name, page_cache_bytes):
    spec = SERVICES[name]
    worlds = [_World(spec, page_cache_bytes, plan=plan)
              for plan in (False, True)]
    # Every handler, cold (short and long idle) and warm, from a client
    # and from a same-node peer; each twice, so the second request of a
    # state is served from the pricing memo.
    visits = [(handler, cold, idle, src)
              for handler in sorted(spec.program.handlers)
              for cold, idle in ((True, 150e-6), (True, 5e-3),
                                 (False, 0.0))
              for src in ("client", "node0")
              for _ in range(2)]
    for visit in visits:
        for world in worlds:
            world.serve(*visit)
        reference, plan = (world.state() for world in worlds)
        assert plan == reference, visit
    assert worlds[1].records and worlds[1].rows


def test_plans_cover_every_action():
    """The services above exercise every kind of plan step."""
    from repro.runtime import service

    seen = set()
    for spec in SERVICES.values():
        world = _World(spec, None, plan=True)
        for handler in spec.program.handlers:
            for cold in (True, False):
                seen.update(step.action
                            for step in world.rt._compile(handler, cold))
    assert seen == {service._END, service._NET_RX, service._PAGE_READ,
                    service._FILE_WRITE, service._FSYNC, service._SEND,
                    service._RPC}


def test_plan_is_compiled_once_per_wakeup_kind(monkeypatch):
    world = _World(build_mongodb(), None, plan=True)
    rt = world.rt
    compiled = []
    compile_plan = ServiceRuntime._compile

    def counted(self, handler, cold):
        compiled.append((handler, cold))
        return compile_plan(self, handler, cold)

    monkeypatch.setattr(ServiceRuntime, "_compile", counted)
    handler = next(iter(rt.spec.program.handlers))
    for cold, idle in ((True, 150e-6), (True, 5e-3), (False, 0.0),
                       (False, 0.0)):
        world.serve(handler, cold, idle, "client")
    assert compiled == [(handler, True), (handler, False)]
    cold, warm = rt._cold_plans[handler], rt._warm_plans[handler]
    # a cold plan is the warm one behind the wakeup's switch and wait
    assert cold[0].blocks == rt._cold_blocks + warm[0].blocks
    assert [(step.blocks, step.action, step.nbytes, step.file)
            for step in cold[1:]] == \
        [(step.blocks, step.action, step.nbytes, step.file)
         for step in warm[1:]]


def test_missing_file_is_a_configuration_error():
    """A handler naming an undeclared file fails when first served."""
    spec = build_memcached()
    ops = next(iter(spec.program.handlers.values())).ops
    spec = _with_handler(spec, "bad", ops + (SyscallOp(
        SyscallInvocation("pread", nbytes=4096, file="nope")),))
    world = _World(spec, None, plan=True)
    with pytest.raises(ConfigurationError, match="no such file 'nope'"):
        world.serve("bad", False, 0.0, "client")
