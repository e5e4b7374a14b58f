"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment
from repro.util.errors import SimulationError


class TestTimeouts:
    def test_clock_advances_to_timeout(self):
        env = Environment()
        done = {}

        def proc():
            yield env.timeout(5.0)
            done["at"] = env.now

        env.process(proc())
        env.run()
        assert done["at"] == 5.0

    def test_timeouts_fire_in_order(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3, "c"))
        env.process(proc(1, "a"))
        env.process(proc(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_run_until_time_stops_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(100.0)

        env.process(proc())
        env.run(until=10.0)
        assert env.now == 10.0

    def test_simultaneous_events_fifo(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("x", "y", "z"):
            env.process(proc(tag))
        env.run()
        assert order == ["x", "y", "z"]


class TestNonFiniteTimes:
    """NaN compares false both ways, so each check is ``not t >= now``."""

    @pytest.mark.parametrize("schedule", [
        lambda env: env.timeout(float("nan")),
        lambda env: env.run(until=float("nan")),
    ], ids=["timeout", "run"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_nan_rejected(self, schedule, warm):
        env = Environment()
        if warm:
            env.timeout(0.25)
            env.run()
            assert env.now == 0.25
        now = env.now
        with pytest.raises(SimulationError):
            schedule(env)
        env.run()
        assert env.now == now


class TestEvents:
    def test_event_value_delivered(self):
        env = Environment()
        evt = env.event()
        got = {}

        def waiter():
            got["value"] = yield evt

        def trigger():
            yield env.timeout(1.0)
            evt.succeed("payload")

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got["value"] == "payload"

    def test_failed_event_raises_in_waiter(self):
        env = Environment()
        evt = env.event()
        caught = {}

        def waiter():
            try:
                yield evt
            except ValueError as exc:
                caught["exc"] = exc

        def trigger():
            yield env.timeout(1.0)
            evt.fail(ValueError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert str(caught["exc"]) == "boom"

    def test_double_trigger_raises(self):
        env = Environment()
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_yield_already_triggered_event(self):
        env = Environment()
        evt = env.event()
        evt.succeed(42)
        got = {}

        def waiter():
            got["value"] = yield evt

        env.process(waiter())
        env.run()
        assert got["value"] == 42


class TestProcesses:
    def test_process_return_value_via_join(self):
        env = Environment()
        got = {}

        def child():
            yield env.timeout(2.0)
            return "done"

        def parent():
            result = yield env.process(child())
            got["result"] = result
            got["time"] = env.now

        env.process(parent())
        env.run()
        assert got["result"] == "done"
        assert got["time"] == 2.0

    def test_yielding_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_run_until_process(self):
        env = Environment()

        def worker():
            yield env.timeout(7.0)
            return "w"

        proc = env.process(worker())
        value = env.run(until=proc)
        assert value == "w"
        assert env.now == 7.0


class TestSpawn:
    """``spawn``: a process nobody can wait on, and so no completion."""

    @staticmethod
    def _worker(env, log, tag, delay):
        yield env.timeout(delay)
        log.append((tag, env.now))
        return tag

    def test_returns_none_and_queues_only_the_bootstrap(self):
        env = Environment()
        assert env.spawn(self._worker(env, [], "a", 1.0)) is None
        # the bootstrap slot, exactly as env.process takes it
        assert len(env._buckets[0.0]) == 2

    def test_return_queues_no_completion(self):
        spawned, processed = Environment(), Environment()
        log_s, log_p = [], []
        spawned.spawn(self._worker(spawned, log_s, "a", 1.0))
        processed.process(self._worker(processed, log_p, "a", 1.0))
        spawned.run()
        processed.run()
        assert log_s == log_p == [("a", 1.0)]
        # bootstrap + timeout, and for env.process its completion too
        assert spawned.dispatched_events == 2
        assert processed.dispatched_events == 3

    def test_same_slots_as_process_for_everything_else(self):
        def run(start):
            env = Environment()
            log = []
            for tag, delay in (("x", 2.0), ("y", 0.0), ("z", 2.0)):
                start(env)(self._worker(env, log, tag, delay))
            env.process(self._worker(env, log, "p", 0.0))
            env.run()
            return log

        assert run(lambda env: env.spawn) == run(lambda env: env.process)

    @pytest.mark.parametrize("guarded", [False, True])
    def test_raise_escapes_run(self, guarded):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("lost request")

        env.spawn(broken(), name="broken")
        with pytest.raises(ValueError, match="lost request"):
            if guarded:
                env.run(max_events=100)
            else:
                env.run()
        assert env.now == 1.0

    def test_thrown_failure_escapes_run(self):
        env = Environment()
        failing = env.event()

        def waiter():
            yield failing

        env.spawn(waiter())
        failing.fail(SimulationError("device died"))
        with pytest.raises(SimulationError, match="device died"):
            env.run()

    def test_caught_failure_finishes_quietly(self):
        env = Environment()
        failing = env.event()
        log = []

        def waiter():
            try:
                yield failing
            except SimulationError:
                log.append("handled")

        env.spawn(waiter())
        failing.fail(SimulationError("device died"))
        env.run()
        assert log == ["handled"]


class TestCombinators:
    def test_all_of_collects_values_in_order(self):
        env = Environment()
        got = {}

        def child(delay, value):
            yield env.timeout(delay)
            return value

        def parent():
            procs = [env.process(child(3, "a")), env.process(child(1, "b"))]
            got["values"] = yield env.all_of(procs)
            got["time"] = env.now

        env.process(parent())
        env.run()
        assert got["values"] == ["a", "b"]
        assert got["time"] == 3.0

    def test_any_of_returns_first(self):
        env = Environment()
        got = {}

        def child(delay, value):
            yield env.timeout(delay)
            return value

        def parent():
            procs = [env.process(child(5, "slow")), env.process(child(1, "fast"))]
            got["value"] = yield env.any_of(procs)
            got["time"] = env.now

        env.process(parent())
        env.run()
        assert got["value"] == "fast"
        assert got["time"] == 1.0

    def test_any_of_timeout_race_waits_for_first_dispatch(self):
        # Regression: fresh timeouts are born triggered (they fire at
        # dispatch), and any_of used to hand them the race instantly —
        # a response racing its deadline always "timed out" at t=0.
        # The race must resolve at the earliest dispatch instead.
        env = Environment()
        got = {}

        def responder():
            yield env.timeout(1.0)
            return "response"

        def caller():
            response = env.process(responder())
            deadline = env.timeout(5.0, value="deadline")
            got["value"] = yield env.any_of([response, deadline])
            got["time"] = env.now
            got["responded"] = response.triggered

        env.process(caller())
        env.run()
        assert got["value"] == "response"
        assert got["time"] == 1.0
        assert got["responded"] is True

    def test_any_of_timeout_race_lost_by_slow_event(self):
        # And the deadline must still win when the response really is
        # late — the fix may not simply ignore pending timeouts.
        env = Environment()
        got = {}

        def responder():
            yield env.timeout(9.0)
            return "response"

        def caller():
            response = env.process(responder())
            deadline = env.timeout(2.0, value="deadline")
            got["value"] = yield env.any_of([response, deadline])
            got["time"] = env.now
            got["responded"] = response.triggered

        env.process(caller())
        env.run()
        assert got["value"] == "deadline"
        assert got["time"] == 2.0
        assert got["responded"] is False

    def test_all_of_empty_succeeds_immediately(self):
        env = Environment()
        got = {}

        def parent():
            got["values"] = yield env.all_of([])

        env.process(parent())
        env.run()
        assert got["values"] == []


class TestCombinatorDeregistration:
    def test_any_of_losers_drop_callbacks(self):
        env = Environment()
        winner = env.timeout(1.0)
        loser = env.event()   # never triggers
        env.any_of([winner, loser])
        assert len(loser.callbacks) == 1
        env.run()
        assert loser.callbacks == []

    def test_all_of_failure_drops_remaining_callbacks(self):
        env = Environment()
        pending = env.event()  # never triggers

        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        combo = env.all_of([env.process(failing()), pending])
        combo.callbacks.append(lambda event: None)  # swallow the failure
        env.run()
        assert not combo.ok
        assert pending.callbacks == []


class TestDrainedQueueDiagnostics:
    def test_error_names_event_type_and_time(self):
        env = Environment()
        env.process((env.timeout(2.5) for _ in range(1)))
        never = env.event()
        with pytest.raises(SimulationError,
                           match=r"drained at t=2\.5 .*Event"):
            env.run(until=never)

    def test_error_includes_process_name(self):
        env = Environment()

        def stalled():
            yield env.event()

        process = env.process(stalled(), name="stalled-worker")
        with pytest.raises(SimulationError, match=r"Process 'stalled-worker'"):
            env.run(until=process)


class TestWatchdogBudgets:
    def test_max_events_trips_on_infinite_loop(self):
        from repro.util.errors import SimBudgetExceededError

        env = Environment()

        def spinner():
            while True:
                yield env.timeout(1.0)

        env.process(spinner(), name="spinner")
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(max_events=50)
        assert excinfo.value.budget == "max_events"
        assert excinfo.value.events >= 50

    def test_deadline_trips_past_horizon(self):
        from repro.util.errors import SimBudgetExceededError

        env = Environment()

        def slow():
            yield env.timeout(100.0)

        env.process(slow(), name="slow")
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(deadline=10.0)
        assert excinfo.value.budget == "deadline"
        assert env.now <= 10.0

    def test_livelock_detector_names_stuck_process(self):
        from repro.util.errors import SimBudgetExceededError

        env = Environment()

        def stuck():
            while True:
                yield env.timeout(0.0)

        env.process(stuck(), name="stuck-worker")
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(max_stalled_events=25)
        assert excinfo.value.budget == "livelock"
        assert "stuck-worker" in str(excinfo.value)

    def test_budgets_disabled_is_bit_identical(self):
        def workload(env, order):
            def proc(delay, tag):
                yield env.timeout(delay)
                order.append((tag, env.now))
            for i, tag in enumerate("abcde"):
                env.process(proc(0.5 * (i + 1), tag))

        plain_env = Environment()
        plain = []
        workload(plain_env, plain)
        plain_env.run()

        guarded_env = Environment()
        guarded = []
        workload(guarded_env, guarded)
        guarded_env.run(max_events=10_000, deadline=1_000.0,
                        max_stalled_events=10_000)
        assert plain == guarded
        assert plain_env.now == guarded_env.now

    def test_budget_applies_to_until_event(self):
        from repro.util.errors import SimBudgetExceededError

        env = Environment()

        def spinner():
            while True:
                yield env.timeout(1.0)

        def finisher():
            yield env.timeout(1e9)

        env.process(spinner(), name="spinner")
        proc = env.process(finisher(), name="finisher")
        with pytest.raises(SimBudgetExceededError):
            env.run(until=proc, max_events=20)


class TestUntilEventStopsAtTrigger:
    def test_run_until_process_ignores_later_events(self):
        # Regression: a dead far-future entry left in the queue (an
        # any_of loser, a deregistered timeout) must not keep the
        # until=event loop running past the awaited event's dispatch.
        env = Environment()
        done = {}

        def loser():
            # A timeout that outlives the awaited process by a lot.
            yield env.timeout(1000.0)
            done["loser"] = env.now

        def winner():
            yield env.timeout(1.0)
            done["winner"] = env.now

        env.process(loser(), name="loser")
        proc = env.process(winner(), name="winner")
        env.run(until=proc)
        assert done["winner"] == 1.0
        assert "loser" not in done
        assert env.now == 1.0

    def test_any_of_losers_cannot_mask_completion(self):
        # An any_of race leaves the losing process (and its far-future
        # timeout) alive in the queue; awaiting the racing process must
        # still return at the winner's time, not the loser's.
        env = Environment()

        def child(delay, value):
            yield env.timeout(delay)
            return value

        def racer():
            slow = env.process(child(500.0, "slow"), name="slow-child")
            quick = env.process(child(2.0, "quick"), name="quick-child")
            result = yield env.any_of([quick, slow])
            assert result == "quick"
            return env.now

        proc = env.process(racer(), name="racer")
        value = env.run(until=proc)
        assert value == 2.0
        assert env.now == 2.0
        assert env._times  # the loser is still pending, not drained

    def test_until_event_with_livelock_behind_it_raises(self):
        # A watchdog must catch a livelock that starves the awaited
        # event instead of silently spinning forever.
        from repro.util.errors import SimBudgetExceededError

        env = Environment()

        def stuck():
            while True:
                yield env.timeout(0.0)

        def never():
            yield env.timeout(1e12)

        env.process(stuck(), name="stuck")
        proc = env.process(never(), name="never")
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(until=proc, max_stalled_events=30)
        assert excinfo.value.budget == "livelock"


class TestCalendarHeapEquivalence:
    """Property test: the calendar queue dispatches in exactly the
    (time, insertion counter) order of a reference single-heap
    scheduler, across randomized mixed near/far workloads that also
    schedule new entries from inside callbacks."""

    class _RefHeap:
        """Reference scheduler: one heapq of (when, seq, fn) tuples."""

        def __init__(self):
            import heapq

            self._heapq = heapq
            self._heap = []
            self._seq = 0
            self.now = 0.0

        def call_after(self, delay, fn):
            self._heapq.heappush(
                self._heap, (self.now + delay, self._seq, fn))
            self._seq += 1

        def run(self):
            while self._heap:
                when, _, fn = self._heapq.heappop(self._heap)
                self.now = when
                fn()

    @staticmethod
    def _drive(scheduler, rng, order):
        """Seed a workload whose callbacks chain further entries.

        Delays mix zero (same-tick), tiny near-future, ties, and far
        horizon values; every decision draws from ``rng`` so both
        schedulers see the identical insertion sequence.
        """
        delays = [0.0, 0.0, 1e-9, 1e-9, 3e-7, 0.5, 0.5, 1e3]
        counter = [0]
        if isinstance(scheduler, Environment):
            # the engine's one timer: each entry is a timeout whose
            # callback runs the step
            def after(delay, fn):
                scheduler.timeout(delay).callbacks.append(
                    lambda _event: fn())
        else:
            after = scheduler.call_after

        def spawn(depth):
            label = counter[0]
            counter[0] += 1

            def fire():
                order.append((label, scheduler.now))
                if depth > 0:
                    for _ in range(rng.randrange(3)):
                        after(rng.choice(delays), spawn(depth - 1))

            return fire

        for _ in range(40):
            after(rng.choice(delays), spawn(3))

    @pytest.mark.parametrize("seed", range(12))
    def test_dispatch_order_matches_reference(self, seed):
        import random

        ref_order, cal_order = [], []
        ref = self._RefHeap()
        self._drive(ref, random.Random(seed), ref_order)
        ref.run()
        env = Environment()
        self._drive(env, random.Random(seed), cal_order)
        env.run()
        assert cal_order == ref_order

    @pytest.mark.parametrize("seed", range(4))
    def test_timeouts_and_calls_interleave_like_reference(self, seed):
        """Same property with Timeout entries mixed among raw
        ``fire(env)`` entries queued by ``_push_after``, the way the
        kernel device ops schedule themselves."""

        class _Entry:
            def __init__(self, fn):
                self.fn = fn

            def fire(self, env):
                self.fn()

        def drive_env(env, rng, order):
            delays = [0.0, 1e-9, 1e-9, 2e-4, 7.0]
            counter = [0]

            def spawn(depth):
                label = counter[0]
                counter[0] += 1

                def fire(_event=None):
                    order.append((label, env.now))
                    if depth > 0:
                        for _ in range(rng.randrange(3)):
                            delay = rng.choice(delays)
                            if rng.random() < 0.5:
                                timeout = env.timeout(delay)
                                timeout.callbacks.append(spawn(depth - 1))
                            else:
                                env._push_after(_Entry(spawn(depth - 1)),
                                                delay)

                return fire

            for _ in range(30):
                timeout = env.timeout(rng.choice(delays))
                timeout.callbacks.append(spawn(3))

        def drive_ref(ref, rng, order):
            delays = [0.0, 1e-9, 1e-9, 2e-4, 7.0]
            counter = [0]

            def spawn(depth):
                label = counter[0]
                counter[0] += 1

                def fire(_event=None):
                    order.append((label, ref.now))
                    if depth > 0:
                        for _ in range(rng.randrange(3)):
                            delay = rng.choice(delays)
                            rng.random()  # mirror the path coin-flip
                            ref.call_after(delay, spawn(depth - 1))

                return fire

            for _ in range(30):
                ref.call_after(rng.choice(delays), spawn(3))

        import random as _random

        ref_order, cal_order = [], []
        ref = self._RefHeap()
        drive_ref(ref, _random.Random(seed), ref_order)
        ref.run()
        env = Environment()
        drive_env(env, _random.Random(seed), cal_order)
        env.run()
        assert cal_order == ref_order


class TestDispatchedEventsCounter:
    def test_counts_plain_run(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # 1 bootstrap resume + 10 timeouts + the process completion event
        assert env.dispatched_events == 12

    def test_counts_horizon_and_guarded_runs_identically(self):
        def build():
            env = Environment()

            def proc():
                for _ in range(10):
                    yield env.timeout(1.0)

            env.process(proc())
            return env

        fast = build()
        fast.run(until=5.0)
        guarded = build()
        guarded.run(until=5.0, max_events=10_000)
        assert fast.dispatched_events == guarded.dispatched_events > 0

    def test_counts_step_and_until_event(self):
        env = Environment()
        timeout = env.timeout(1.0)
        env.step()
        assert env.dispatched_events == 1
        waited = env.timeout(2.0)
        env.run(until=waited)
        assert env.dispatched_events == 2
        assert timeout.triggered


class TestWheelPathRegressions:
    """any_of behaviour across the near/far bucket boundary
    (zero-delay churn in the live bucket racing far-future heap times)."""

    def test_any_of_zero_delay_beats_far_timeout(self):
        env = Environment()
        result = {}

        def proc():
            near = env.timeout(0.0, value="near")
            far = env.timeout(1e9, value="far")
            first = yield env.any_of([near, far])
            result["value"] = first
            result["now"] = env.now

        def pacer():
            yield env.timeout(1.0)

        env.process(proc())
        race = env.process(pacer())
        env.run(until=race)
        # the far loser must not have dragged the clock to 1e9
        assert result["value"] == "near"
        assert result["now"] == 0.0
        assert env.now == 1.0
