"""Network devices.

Each node owns a :class:`NicDevice` — a DES resource serialising wire
transmission at the platform's link bandwidth, with byte counters for the
bandwidth numbers Fig. 5/7 report. Cross-node latency and which sends
reach the wire are decided by the service runtime
(:mod:`repro.runtime.service`).
"""

from __future__ import annotations

from repro.hw.platform import NetworkSpec
from repro.sim import Environment, Event, Resource
from repro.util.errors import ConfigurationError


class _NicTransmitOp:
    """One NIC send: serialise its bytes onto the wire, as queue entries.

    A state machine in ``_stage`` that fires once per queue slot it
    owns. Slot map (T = issue time, W = wire time plus fault penalty):

      bootstrap   stage 0 @ T    fault penalty draw, acquire the wire
      grant       stage 1 @ T    resume on the grant
      hold        stage 2 @ T+W  release the wire, count the bytes
      completion  @ T+W          ``completion`` succeeds

    On a busy wire the op takes no slot while it waits: ``release()``
    queues the op itself in the grant slot, which runs stage 1.
    """

    __slots__ = ("device", "completion", "_stage", "_nbytes", "_issued",
                 "_penalty")

    def __init__(self, device: "NicDevice", nbytes: float) -> None:
        env = device.env
        self.device = device
        self.completion = Event(env)
        self._stage = 0
        self._nbytes = nbytes
        self._issued = 0.0
        self._penalty = 0.0
        env._push(self)

    @property
    def label(self) -> str:
        """What the op is, for watchdog messages."""
        return f"nic-transmit on {self.device.name!r}"

    def fire(self, env: Environment) -> None:
        stage = self._stage
        if stage == 0:
            device = self.device
            try:
                if self._nbytes < 0:
                    raise ConfigurationError("nbytes must be non-negative")
                self._issued = env.now
                faults = env.faults
                self._penalty = (0.0 if faults is None
                                 else faults.nic_penalty(device.name))
            except Exception as error:
                self.completion.fail(error)
                return
            self._stage = 1
            device._wire.acquire(self)
        elif stage == 1:
            self._stage = 2
            env._push_after(self, self._nbytes
                      / self.device.effective_bandwidth + self._penalty)
        else:
            device = self.device
            device._wire.release()
            device.tx_bytes += self._nbytes
            timeline = device._timeline
            if timeline is not None:
                timeline.complete(device.name, "tx", self._issued,
                                  env.now - self._issued,
                                  nbytes=self._nbytes)
            self.completion.succeed(None)


class NicDevice:
    """One node's NIC: a serialising bandwidth resource plus counters.

    The telemetry timeline is bound once at construction (the
    attach-time guard): install ``env.timeline`` before building nodes.
    """

    def __init__(
        self,
        env: Environment,
        spec: NetworkSpec,
        name: str = "nic",
        bandwidth_share: float = 1.0,
    ) -> None:
        if not 0.0 < bandwidth_share <= 1.0:
            raise ConfigurationError("bandwidth_share must be in (0, 1]")
        self.env = env
        self.spec = spec
        self.name = name
        self.bandwidth_share = bandwidth_share
        self._wire = Resource(env, capacity=1, name=f"{name}-wire")
        self._timeline = env.timeline
        self.tx_bytes = 0.0
        self.rx_bytes = 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Usable bandwidth in bytes/s after external contention."""
        return self.spec.bandwidth_bytes_per_s * self.bandwidth_share

    def transmit_op(self, nbytes: float) -> Event:
        """Serialise ``nbytes`` onto the wire; returns the completion.

        Injection point: an attached
        :class:`~repro.faults.injector.FaultInjector` may declare the
        node down (fails the completion with
        :class:`~repro.util.errors.FaultInjectionError`) or charge this
        send extra delay for latency spikes and packet-loss
        retransmissions. The penalty folds into the serialisation hold,
        so a zero penalty schedules identically to no injector.
        """
        return _NicTransmitOp(self, nbytes).completion

    def account_rx(self, nbytes: float) -> None:
        """Count received bytes (ingress is not a serialising bottleneck
        at the message sizes simulated here)."""
        self.rx_bytes += nbytes
