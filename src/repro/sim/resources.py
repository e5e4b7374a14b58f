"""Shared-resource primitives built on the DES engine.

:class:`Resource` models a counted server pool (CPU cores, disk channels,
worker slots) with FIFO queueing. :class:`Store` models an unbounded or
bounded FIFO of items (request queues, mailboxes between threads).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

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
    """A FIFO buffer of items with blocking get and optional capacity."""

    def __init__(
        self, env: Environment, capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self.total_puts = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """A snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; blocks (as an event) when at capacity."""
        done = self.env.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            self.total_puts += 1
            done.succeed(None)
            return done
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((done, item))
            return done
        self._items.append(item)
        self.total_puts += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._items))
        done.succeed(None)
        return done

    def append(self, item: Any) -> None:
        """Insert ``item`` into an unbounded store; nothing to wait on.

        :meth:`put` without its completion event: the item is handed to
        the oldest blocked getter or buffered, exactly as :meth:`put`
        would, but no entry is queued for a caller that never waits.
        """
        if self.capacity is not None:
            raise SimulationError(
                f"append() on bounded store {self.name!r}; use put()")
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._items.append(item)
        self.peak_occupancy = max(self.peak_occupancy, len(self._items))

    def get(self) -> Event:
        """Remove and return the oldest item; blocks when empty."""
        got = self.env.event()
        if self._items:
            item = self._items.popleft()
            self._admit_blocked_putter()
            got.succeed(item)
        else:
            self._getters.append(got)
        return got

    def _admit_blocked_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            done, item = self._putters.popleft()
            self._items.append(item)
            self.total_puts += 1
            self.peak_occupancy = max(self.peak_occupancy, len(self._items))
            done.succeed(None)
