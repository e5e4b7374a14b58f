"""Shared-resource primitives built on the DES engine.

:class:`Resource` models a counted server pool (CPU cores, disk channels,
worker slots) with FIFO queueing. :class:`Store` models an unbounded
FIFO of items (a service's request queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Environment, Event
from repro.util.errors import SimulationError


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    The one grant policy of the kernel devices (:mod:`repro.kernelsim`):
    a device op claims a server with :meth:`acquire`, holds it for its
    service time and hands it back with :meth:`release`. Waiting time
    statistics are accumulated so callers can report queueing delay.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[tuple[Any, float]] = deque()
        self.total_wait_time = 0.0
        self.total_grants = 0
        self.peak_queue_length = 0

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._waiters)

    def acquire(self, op: Any) -> None:
        """Claim a server for ``op``, a queue entry with a ``fire(env)``.

        ``op`` must already be at the stage that runs once it holds the
        server. Either way the grant is one queue slot holding ``op``
        itself. With a server idle that slot is taken now. Otherwise
        ``op`` joins the FIFO and takes no slot until :meth:`release`
        hands the server over and queues it.
        """
        env = self.env
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_grants += 1
            env._push(op)
        else:
            self._waiters.append((op, env._now))
            self.peak_queue_length = max(self.peak_queue_length,
                                         len(self._waiters))

    def release(self) -> None:
        """Release one held server, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            op, enqueued_at = self._waiters.popleft()
            env = self.env
            self.total_wait_time += env._now - enqueued_at
            self.total_grants += 1
            env._push(op)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO of items with a blocking get.

    :meth:`append` hands an item to the oldest blocked getter or buffers
    it; nothing is queued for the producer, which never waits.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def append(self, item: Any) -> None:
        """Insert ``item``; nothing to wait on."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Remove and return the oldest item; blocks when empty."""
        got = self.env.event()
        if self._items:
            got.succeed(self._items.popleft())
        else:
            self._getters.append(got)
        return got
