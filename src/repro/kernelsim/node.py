"""A node: one server binding CPU, disk, NIC and page cache together."""

from __future__ import annotations

from typing import Optional

from repro.hw.platform import PlatformSpec
from repro.kernelsim.filesystem import FileSystem, PageCache
from repro.kernelsim.netstack import NicDevice
from repro.kernelsim.scheduler import CpuDevice
from repro.sim import Environment, Event, Resource
from repro.util.errors import ConfigurationError


class _DiskIoOp:
    """One disk I/O: queue slot, access latency, then transfer channel.

    A state machine in ``_stage`` that fires once per queue slot it
    owns; two acquire→hold phases. Slot map (T = issue time, L =
    access latency, X = transfer time, both stretched by a fault
    slowdown):

      bootstrap   stage 0 @ T      fault draws, acquire the queue
      grant       stage 1 @ T      resume on the queue grant
      latency     stage 2 @ T+L    acquire the channel
      grant       stage 3 @ T+L    resume on the channel grant
      transfer    stage 4 @ T+L+X  release both, count the bytes
      completion  @ T+L+X          ``completion`` succeeds

    Waiting on a busy queue or channel takes no slot: ``release()``
    queues the op itself in the grant slot, which runs stage 1 or 3.
    """

    __slots__ = ("device", "completion", "_stage", "_nbytes", "_write",
                 "_issued", "_slowdown")

    def __init__(self, device: "DiskDevice", nbytes: float,
                 write: bool) -> None:
        env = device.env
        self.device = device
        self.completion = Event(env)
        self._stage = 0
        self._nbytes = nbytes
        self._write = write
        self._issued = 0.0
        self._slowdown = 1.0
        env._push(self)

    @property
    def label(self) -> str:
        """What the op is, for watchdog messages."""
        return f"disk-io on {self.device.name!r}"

    def fire(self, env: Environment) -> None:
        stage = self._stage
        device = self.device
        if stage == 0:
            try:
                if self._nbytes < 0:
                    raise ConfigurationError("nbytes must be non-negative")
                self._issued = env.now
                faults = env.faults
                if faults is not None:
                    faults.disk_check(device.name)
                    self._slowdown = faults.disk_factor(device.name)
            except Exception as error:
                self.completion.fail(error)
                return
            self._stage = 1
            device._queue.acquire(self)
        elif stage == 1:
            spec = device.spec
            latency = (spec.write_latency_s if self._write
                       else spec.read_latency_s)
            self._stage = 2
            env._push_after(self, latency * self._slowdown)
        elif stage == 2:
            self._stage = 3
            device._channel.acquire(self)
        elif stage == 3:
            xfer = self._nbytes / (device.spec.bandwidth_bytes_per_s
                                   * device.bandwidth_share)
            self._stage = 4
            env._push_after(self, xfer * self._slowdown)
        else:
            device._channel.release()
            device._queue.release()
            device.operations += 1
            if self._write:
                device.write_bytes += self._nbytes
            else:
                device.read_bytes += self._nbytes
            timeline = device._timeline
            if timeline is not None:
                timeline.complete(device.name,
                                  "write" if self._write else "read",
                                  self._issued, env.now - self._issued,
                                  nbytes=self._nbytes)
            self.completion.succeed(None)


class DiskDevice:
    """A storage device: serialising queue plus byte counters."""

    def __init__(self, env: Environment, platform: PlatformSpec,
                 name: str = "disk", bandwidth_share: float = 1.0) -> None:
        if not 0.0 < bandwidth_share <= 1.0:
            raise ConfigurationError("bandwidth_share must be in (0, 1]")
        self.env = env
        self.spec = platform.disk
        self.name = name
        self.bandwidth_share = bandwidth_share
        # SSDs overlap several outstanding requests' access latencies;
        # HDDs serialise on the head. Data transfer always serialises on
        # the device link, so aggregate throughput can never exceed the
        # device bandwidth.
        depth = 8 if self.spec.kind == "ssd" else 1
        self._queue = Resource(env, capacity=depth, name=name)
        self._channel = Resource(env, capacity=1, name=f"{name}-channel")
        self._timeline = env.timeline
        self.read_bytes = 0.0
        self.write_bytes = 0.0
        self.operations = 0

    def io_op(self, nbytes: float, write: bool = False) -> Event:
        """One device I/O of ``nbytes``; returns the completion event.

        Injection point: an attached
        :class:`~repro.faults.injector.FaultInjector` may fail the
        operation outright (injected IO error or crashed node, failing
        the completion with
        :class:`~repro.util.errors.FaultInjectionError`) or stretch its
        access latency and transfer time by a brown-out factor. A
        factor of 1.0 schedules identically to no injector.
        """
        return _DiskIoOp(self, nbytes, write).completion


class Node:
    """One simulated server: platform + devices + VFS.

    ``cores`` and ``frequency_ghz`` may override the platform defaults for
    the power-management study (Fig. 11); ``page_cache_bytes`` defaults to
    a quarter of RAM (a database would normally configure this).
    """

    def __init__(
        self,
        env: Environment,
        platform: PlatformSpec,
        name: str = "node0",
        cores: Optional[int] = None,
        frequency_ghz: Optional[float] = None,
        page_cache_bytes: Optional[float] = None,
        nic_bandwidth_share: float = 1.0,
        disk_bandwidth_share: float = 1.0,
    ) -> None:
        self.env = env
        self.platform = platform
        self.name = name
        self.frequency_ghz = (frequency_ghz if frequency_ghz is not None
                              else platform.base_frequency_ghz)
        core_count = cores if cores is not None else platform.total_cores
        if core_count < 1:
            raise ConfigurationError("node needs at least one core")
        if core_count > platform.total_cores * platform.smt_ways:
            raise ConfigurationError(
                f"{core_count} cores exceed platform capacity"
            )
        self.cores = core_count
        self.cpu = CpuDevice(
            env, core_count, platform.frequency_hz(self.frequency_ghz),
            name=f"{name}-cpu",
        )
        self.disk = DiskDevice(env, platform, name=f"{name}-disk",
                               bandwidth_share=disk_bandwidth_share)
        self.nic = NicDevice(env, platform.network, name=f"{name}-nic",
                             bandwidth_share=nic_bandwidth_share)
        cache_bytes = (page_cache_bytes if page_cache_bytes is not None
                       else platform.ram_bytes * 0.25)
        self.filesystem = FileSystem(PageCache(cache_bytes))

    def seconds_for_cycles(self, cycles: float) -> float:
        """Wall-clock seconds for ``cycles`` at this node's frequency."""
        return self.cpu.seconds_for_cycles(cycles)
