"""CPU scheduling: core pools and context-switch costs.

:class:`CpuDevice` is the node's pool of logical cores — a DES resource
threads acquire to execute on-CPU work. Every block/unblock transition
pays a context switch priced through the analytical core model (kernel
scheduler code is real code: it pollutes the i-cache and burns cycles,
one of the effects prior user-level cloning work misses).
"""

from __future__ import annotations

from typing import Optional

from repro.hw.core import CoreModel, ExecutionContext
from repro.kernelsim.syscalls import context_switch_block
from repro.sim import Environment, Event, Resource
from repro.util.errors import ConfigurationError


class _CpuExecuteOp:
    """One CPU operation: occupy a core for its cycles, as queue entries.

    A state machine in ``_stage`` that fires once per queue slot it
    owns. Slot map (T = issue time, H = hold):

      bootstrap   stage 0 @ T    price the hold, crash check, acquire
      grant       stage 1 @ T    resume on the grant: steal factor
      hold        stage 2 @ T+H  release the core, account busy time
      completion  @ T+H          ``completion`` succeeds

    On a busy pool the op takes no slot while it waits: ``release()``
    queues the op itself in the grant slot, which runs stage 1.
    """

    __slots__ = ("device", "completion", "_stage", "_hold", "_switch")

    def __init__(self, device: "CpuDevice", cycles: float,
                 switch: Optional[ContextSwitchModel]) -> None:
        env = device.env
        self.device = device
        self.completion = Event(env)
        self._stage = 0
        self._hold = cycles
        self._switch = switch
        env._push(self)

    @property
    def label(self) -> str:
        """What the op is, for watchdog messages."""
        return f"cpu-execute on {self.device.name!r}"

    def fire(self, env: Environment) -> None:
        stage = self._stage
        if stage == 0:
            device = self.device
            total_cycles = self._hold
            switch = self._switch
            if switch is not None:
                total_cycles += switch.cycles
                device.context_switches += 1
            try:
                hold = device.seconds_for_cycles(total_cycles)
                faults = env.faults
                if faults is not None:
                    faults.check_node_up(device.name)
            except Exception as error:
                self.completion.fail(error)
                return
            self._hold = hold
            self._stage = 1
            device._pool.acquire(self)
        elif stage == 1:
            try:
                faults = env.faults
                if faults is not None:
                    self._hold *= faults.cpu_factor(self.device.name)
            except Exception as error:
                self.device._pool.release()
                self.completion.fail(error)
                return
            self._stage = 2
            env._push_after(self, self._hold)
        else:
            device = self.device
            device._pool.release()
            device.busy_seconds += self._hold
            self.completion.succeed(None)


class ContextSwitchModel:
    """Prices one context switch on a given execution context."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self._timing = CoreModel(ctx).time_block(context_switch_block())

    @property
    def cycles(self) -> float:
        """Core cycles consumed per switch."""
        return self._timing.cycles

    @property
    def instructions(self) -> float:
        """Kernel instructions retired per switch."""
        return self._timing.instructions

    @property
    def timing(self):
        """Full BlockTiming of one switch (for counter aggregation)."""
        return self._timing


class CpuDevice:
    """A pool of logical cores with utilisation accounting."""

    def __init__(
        self,
        env: Environment,
        cores: int,
        frequency_hz: float,
        name: str = "cpu",
    ) -> None:
        if cores < 1:
            raise ConfigurationError("cores must be >= 1")
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.env = env
        self.cores = cores
        self.frequency_hz = frequency_hz
        self.name = name
        self._pool = Resource(env, capacity=cores, name=name)
        self.busy_seconds = 0.0
        self.context_switches = 0

    @property
    def queue_length(self) -> int:
        """Runnable threads waiting for a core."""
        return self._pool.queue_length

    @property
    def in_use(self) -> int:
        """Cores currently executing."""
        return self._pool.in_use

    def utilisation(self, elapsed_seconds: float) -> float:
        """Aggregate CPU utilisation in [0, 1] over ``elapsed_seconds``."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed_seconds * self.cores))

    def seconds_for_cycles(self, cycles: float) -> float:
        """Wall-clock seconds for ``cycles`` of on-core work."""
        if cycles < 0:
            raise ConfigurationError("cycles must be non-negative")
        return cycles / self.frequency_hz

    def execute_op(
        self,
        cycles: float,
        switch: Optional[ContextSwitchModel] = None,
    ) -> Event:
        """Occupy one core for ``cycles`` of work; returns the completion.

        When ``switch`` is given, the dispatch pays one context switch
        (the thread was blocked and is being scheduled back in).

        Injection point: an attached
        :class:`~repro.faults.injector.FaultInjector` may declare the
        node crashed (fails the completion with
        :class:`~repro.util.errors.FaultInjectionError`) or stretch the
        hold time by a CPU-steal factor — the vmstat ``%steal`` effect
        of a noisy hypervisor co-tenant. A factor of 1.0 schedules
        identically to no injector.
        """
        return _CpuExecuteOp(self, cycles, switch).completion
