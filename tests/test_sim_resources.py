"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store
from repro.util.errors import SimulationError


class _HoldOp:
    """The device-op protocol in miniature: acquire, hold, release.

    A state machine that fires once per queue slot it owns, as the
    kernel device ops do: stage 0 claims the server, stage 1 runs on
    the grant and queues the op again with ``_push_after`` for the hold,
    stage 2 releases. ``Resource.acquire`` queues the op itself for the
    grant, at once on an idle server, or by ``release()`` on a busy one.
    """

    def __init__(self, resource, hold, done, tag=None):
        self.resource = resource
        self.hold = hold
        self.done = done
        self.tag = tag
        self.granted_at = None
        self._stage = 0

    def start(self):
        self._stage = 1
        self.resource.acquire(self)

    def fire(self, env):
        if self._stage == 0:
            self.start()
        elif self._stage == 1:
            self.granted_at = env.now
            self._stage = 2
            env._push_after(self, self.hold)
        else:
            self.resource.release()
            self.done.append(self.tag if self.tag is not None else env.now)


def _start(env, resource, hold, done, at=0.0, tag=None):
    op = _HoldOp(resource, hold, done, tag)
    env._push_after(op, at - env.now)
    return op


class TestResource:
    def test_serialises_beyond_capacity(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        finish_times = []
        _start(env, cpu, 10.0, finish_times)
        _start(env, cpu, 10.0, finish_times)
        env.run()
        assert finish_times == [10.0, 20.0]

    def test_parallelism_up_to_capacity(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        finish_times = []
        for _ in range(2):
            _start(env, cpu, 10.0, finish_times)
        env.run()
        assert finish_times == [10.0, 10.0]

    def test_wait_time_accounting(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        _start(env, cpu, 4.0, [])
        second = _start(env, cpu, 4.0, [])
        env.run()
        # Second op waited 4 time units; two grants total.
        assert second.granted_at == 4.0
        assert cpu.total_grants == 2
        assert cpu.peak_queue_length == 1
        assert cpu.total_wait_time == pytest.approx(4.0)
        assert cpu.in_use == 0 and cpu.queue_length == 0

    def test_idle_grant_is_one_slot_busy_grant_waits_for_release(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        first = _HoldOp(cpu, 1.0, [])
        first.start()
        # an idle server's grant is the op's own slot, nothing else
        assert env._buckets[0.0][1:] == [first]
        # a busy server queues nothing: the op waits in the FIFO
        second = _HoldOp(cpu, 1.0, [])
        second.start()
        assert env._buckets[0.0][1:] == [first]
        assert cpu.queue_length == 1
        # release() hands the server over: the waiting op itself takes
        # the grant's slot, with no event or callback in between
        cpu.release()
        assert env._buckets[0.0][1:] == [first, second]
        assert cpu.queue_length == 0 and cpu.in_use == 1
        assert second.granted_at is None
        env.step()
        env.step()
        assert second.granted_at == 0.0
        assert env.dispatched_events == 2

    def test_release_when_idle_raises(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            cpu.release()

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_fifo_grant_order(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        order = []
        _start(env, cpu, 5.0, order, at=0.0, tag="first")
        _start(env, cpu, 5.0, order, at=1.0, tag="second")
        _start(env, cpu, 5.0, order, at=2.0, tag="third")
        env.run()
        assert order == ["first", "second", "third"]


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = {}

        def consumer():
            got["item"] = yield store.get()

        def producer():
            yield env.timeout(1.0)
            store.append("msg")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got["item"] == "msg"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = {}

        def consumer():
            got["item"] = yield store.get()
            got["time"] = env.now

        def producer():
            yield env.timeout(5.0)
            store.append(1)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got["time"] == 5.0

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        for i in range(3):
            store.append(i)
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_len_and_items(self):
        env = Environment()
        store = Store(env)
        store.append("x")
        store.append("y")
        assert len(store) == 2
        first, second = store.get(), store.get()
        assert len(store) == 0
        env.run()
        assert (first.value, second.value) == ("x", "y")

    def test_append_hands_item_to_oldest_getter(self):
        """A blocked getter takes the item in its own slot: append
        queues nothing for the producer, and buffers nothing."""
        env = Environment()
        store = Store(env)
        got = []

        def consumer(tag):
            got.append((tag, (yield store.get())))

        env.spawn(consumer("first"))
        env.spawn(consumer("second"))
        env.run()
        dispatched = env.dispatched_events
        store.append("a")
        store.append("b")
        assert len(store) == 0
        env.run()
        assert got == [("first", "a"), ("second", "b")]
        # one getter event per item, nothing else
        assert env.dispatched_events == dispatched + 2
