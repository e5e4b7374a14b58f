"""Request-handler program IR.

A :class:`Handler` is an ordered sequence of operations executed per
request: compute blocks (priced by the analytical core model), system
calls (kernel blocks + device side effects), and RPCs to downstream
services. A :class:`Program` groups a service's handlers with its code
and data footprint metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.hw.ir import BlockSpec
from repro.kernelsim.syscalls import SyscallInvocation
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ComputeOp:
    """Execute one user-space block (all its iterations)."""

    block: BlockSpec


@dataclass(frozen=True)
class SyscallOp:
    """Invoke one system call.

    ``file`` routes disk syscalls through the VFS (page-cache hits skip
    the device); network syscalls route payloads through the NIC.
    """

    invocation: SyscallInvocation


@dataclass(frozen=True)
class RpcOp:
    """Synchronous RPC to a downstream tier.

    ``parallel_group``: ops sharing a non-None group id within one handler
    are issued concurrently and joined together (fan-out in microservice
    graphs, e.g. composePost writing to several storage tiers at once).
    """

    target_service: str
    request_bytes: float
    response_bytes: float
    handler: str = "default"
    parallel_group: Optional[int] = None

    def __post_init__(self) -> None:
        if self.request_bytes < 0 or self.response_bytes < 0:
            raise ConfigurationError("RPC sizes must be non-negative")


Op = Union[ComputeOp, SyscallOp, RpcOp]


@dataclass(frozen=True)
class Handler:
    """One request type's processing pipeline."""

    name: str
    ops: Tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError(f"handler {self.name!r} has no ops")

    @property
    def compute_blocks(self) -> List[BlockSpec]:
        """All compute blocks, in order."""
        return [op.block for op in self.ops if isinstance(op, ComputeOp)]

    @property
    def syscalls(self) -> List[SyscallInvocation]:
        """All syscall invocations, in order."""
        return [op.invocation for op in self.ops if isinstance(op, SyscallOp)]

    @property
    def rpcs(self) -> List[RpcOp]:
        """All downstream RPCs, in order."""
        return [op for op in self.ops if isinstance(op, RpcOp)]

    def data_footprint_bytes(self) -> float:
        """Largest data working set the handler touches."""
        footprint = 0.0
        for block in self.compute_blocks:
            for spec in block.mem:
                footprint = max(footprint, float(spec.wset_bytes))
        return footprint


@dataclass(frozen=True)
class Program:
    """A service's full body: request handlers plus footprint metadata.

    - ``handlers``: request-type name -> Handler;
    - ``background_blocks``: periodic maintenance work (timer threads);
    - ``hot_code_bytes``: the i-side footprint of the service's hot path
      *beyond* the handler blocks themselves (framework/library code the
      handler traverses between blocks) — this feeds the i-cache reuse
      distance;
    - ``resident_bytes``: long-lived heap (e.g. the key-value store's
      data), used by contention/footprint modelling.
    """

    handlers: Mapping[str, Handler]
    background_blocks: Tuple[BlockSpec, ...] = ()
    hot_code_bytes: float = 64 * 1024
    resident_bytes: float = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if not self.handlers:
            raise ConfigurationError("a program needs at least one handler")
        for name, handler in self.handlers.items():
            if name != handler.name:
                raise ConfigurationError(
                    f"handler key {name!r} != handler.name {handler.name!r}"
                )
        if self.hot_code_bytes < 0 or self.resident_bytes < 0:
            raise ConfigurationError("footprints must be non-negative")

    def handler(self, name: str) -> Handler:
        """Look up a handler by request-type name."""
        found = self.handlers.get(name)
        if found is None:
            raise ConfigurationError(f"no handler {name!r}")
        return found

    def all_blocks(self) -> List[BlockSpec]:
        """Every compute block across handlers and background work."""
        blocks: List[BlockSpec] = []
        for handler in self.handlers.values():
            blocks.extend(handler.compute_blocks)
        blocks.extend(self.background_blocks)
        return blocks

    def static_branch_sites(self) -> int:
        """Total static conditional-branch sites across all blocks.

        Includes a floor contribution from the hot framework code (one
        branch per ~16 bytes of code is typical for compiled C/C++).
        """
        sites = int(self.hot_code_bytes / 16)
        for block in self.all_blocks():
            for branch in block.branches:
                sites += branch.static_count
        return max(1, sites)

    def downstream_services(self) -> List[str]:
        """Names of all services this program calls into."""
        targets: List[str] = []
        for handler in self.handlers.values():
            for rpc in handler.rpcs:
                if rpc.target_service not in targets:
                    targets.append(rpc.target_service)
        return targets
