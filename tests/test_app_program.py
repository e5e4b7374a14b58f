"""Unit tests for the application program IR and skeletons."""

import pytest

from repro.app import (
    ClientNetworkModel,
    ComputeOp,
    Handler,
    Program,
    RpcOp,
    ServerNetworkModel,
    Skeleton,
    SyscallOp,
    ThreadClass,
    ThreadTrigger,
)
from repro.app.workloads.common import kv_lookup_block, parse_block
from repro.kernelsim.syscalls import SyscallInvocation
from repro.util.errors import ConfigurationError


def _handler(name="h", rpcs=()):
    ops = [
        SyscallOp(SyscallInvocation("recv", nbytes=100)),
        ComputeOp(parse_block("p", 1000)),
        *rpcs,
        SyscallOp(SyscallInvocation("send", nbytes=200)),
    ]
    return Handler(name, tuple(ops))


class TestHandler:
    def test_accessors_partition_ops(self):
        handler = _handler(rpcs=(RpcOp("downstream", 100, 200),))
        assert len(handler.compute_blocks) == 1
        assert [inv.name for inv in handler.syscalls] == ["recv", "send"]
        assert handler.rpcs[0].target_service == "downstream"

    def test_empty_handler_rejected(self):
        with pytest.raises(ConfigurationError):
            Handler("empty", ())

    def test_data_footprint_is_max_wset(self):
        handler = Handler("h", (
            ComputeOp(kv_lookup_block("kv", 1000, table_bytes=1 << 20,
                                      accesses=0)),
        ))
        assert handler.data_footprint_bytes() == 1 << 20

    def test_negative_rpc_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            RpcOp("svc", -1, 0)


class TestProgram:
    def test_handler_lookup(self):
        program = Program(handlers={"h": _handler()})
        assert program.handler("h").name == "h"
        with pytest.raises(ConfigurationError):
            program.handler("missing")

    def test_key_name_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(handlers={"x": _handler(name="y")})

    def test_empty_program_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(handlers={})

    def test_static_branch_sites_positive(self):
        program = Program(handlers={"h": _handler()})
        assert program.static_branch_sites() > 0

    def test_downstream_services_deduplicated(self):
        handler = _handler(rpcs=(
            RpcOp("a", 1, 1), RpcOp("b", 1, 1), RpcOp("a", 1, 1),
        ))
        program = Program(handlers={"h": handler})
        assert program.downstream_services() == ["a", "b"]


class TestSkeleton:
    def _skeleton(self, **kwargs):
        defaults = dict(
            server_model=ServerNetworkModel.IO_MULTIPLEXING,
            client_model=ClientNetworkModel.SYNCHRONOUS,
            thread_classes=(
                ThreadClass("acceptor", 1, "acceptor", ThreadTrigger.SOCKET),
                ThreadClass("worker", 4, "worker", ThreadTrigger.SOCKET),
            ),
        )
        defaults.update(kwargs)
        return Skeleton(**defaults)

    def test_worker_threads_fixed_pool(self):
        assert self._skeleton().worker_threads(connections=100) == 4

    def test_worker_threads_scaling(self):
        skeleton = self._skeleton(thread_classes=(
            ThreadClass("conn", 0, "worker", ThreadTrigger.SOCKET,
                        scales_with_connections=True),
        ), max_connections=64)
        assert skeleton.worker_threads(connections=10) == 10
        assert skeleton.worker_threads(connections=1000) == 64

    def test_wait_syscall_per_model(self):
        assert self._skeleton().wait_syscall() == "epoll_wait"
        blocking = self._skeleton(server_model=ServerNetworkModel.BLOCKING)
        assert blocking.wait_syscall() == "recv"

    def test_epoll_batching_grows_with_load(self):
        skeleton = self._skeleton()
        low = skeleton.expected_batch(qps=100, workers=4)
        high = skeleton.expected_batch(qps=1_000_000, workers=4)
        assert low < high <= skeleton.max_batch

    def test_blocking_never_batches(self):
        skeleton = self._skeleton(server_model=ServerNetworkModel.BLOCKING)
        assert skeleton.expected_batch(qps=1e6, workers=1) == 1.0

    def test_duplicate_thread_class_names_rejected(self):
        with pytest.raises(ConfigurationError):
            self._skeleton(thread_classes=(
                ThreadClass("w", 1, "worker", ThreadTrigger.SOCKET),
                ThreadClass("w", 1, "worker", ThreadTrigger.SOCKET),
            ))

    def test_timer_class_needs_period(self):
        with pytest.raises(ConfigurationError):
            ThreadClass("bg", 1, "background", ThreadTrigger.TIMER)

    def test_zero_count_non_scaling_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadClass("w", 0, "worker", ThreadTrigger.SOCKET)
