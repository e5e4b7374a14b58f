"""Simulated OS kernel substrate.

Cloud services spend a large fraction of their execution in the kernel
(§3.3.2); Ditto clones that by imitating the system calls themselves
(§4.4.1). This package models the kernel side of that story:

- a syscall table where each call carries a *kernel instruction footprint*
  (a :class:`~repro.hw.ir.BlockSpec` priced by the same CPU model as user
  code — kernel code competes for the i-cache, which is why cloud services
  are frontend-bound) plus device side-effects (disk or NIC work);
- a VFS with a page cache whose hit rate shapes disk traffic;
- per-node NICs that serialise sends at the link bandwidth;
- CPU scheduling with explicit context-switch costs.
"""

from repro.kernelsim.syscalls import (
    SYSCALL_TABLE,
    DeviceOp,
    SyscallDef,
    SyscallInvocation,
    kernel_block_for,
    kernel_code_footprint,
)
from repro.kernelsim.filesystem import FileSystem, PageCache
from repro.kernelsim.netstack import NicDevice
from repro.kernelsim.scheduler import ContextSwitchModel, CpuDevice
from repro.kernelsim.node import Node

__all__ = [
    "ContextSwitchModel",
    "CpuDevice",
    "DeviceOp",
    "FileSystem",
    "NicDevice",
    "Node",
    "PageCache",
    "SYSCALL_TABLE",
    "SyscallDef",
    "SyscallInvocation",
    "kernel_block_for",
    "kernel_code_footprint",
]
