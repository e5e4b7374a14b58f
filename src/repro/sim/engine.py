"""Core event loop, events and processes for discrete-event simulation.

The engine is the innermost loop of every Ditto experiment: profiling
sweeps, tuning iterations and the fig5-fig11 benchmarks all bottom out
in :meth:`Environment.step`. The hot paths are therefore written for
allocation economy while preserving, exactly, the scheduling semantics
the rest of the stack depends on (see DESIGN.md "Engine invariants"):

* events dispatch in (time, insertion counter) order — FIFO among
  same-timestamp events. The queue is a calendar of per-timestamp FIFO
  buckets (a ``dict`` keyed by exact scheduled time) over a binary heap
  of *distinct* times: one bucket per timestamp means the heap never
  holds ties, and appending to / draining a bucket in list order *is*
  insertion-counter order, with no counter stored per entry;
* zero-delay entries — resumes, grants, completion events, the bulk of
  a service simulation's queue traffic — land in the bucket currently
  being drained and cost one list append, no heap operation at all;
  only entries that actually advance time touch the heap;
* only entries that do something are queued: nothing is pushed just to
  hold a bucket slot, so every dispatch runs a callback or a ``fire``.
  A process started with :meth:`Environment.spawn` has no completion
  entry at all — nobody can wait on it — and an exception escaping it
  propagates out of :meth:`Environment.run` instead of failing an event
  no one holds;
* a process yielding an already-triggered event resumes on the *next*
  scheduling round (via a lightweight :class:`_Resume` queue entry, not
  a proxy ``Event``), consuming exactly one bucket slot;
* :meth:`Environment.timeout` is the one timer: a fresh ``Timeout`` per
  call, born triggered and queued at ``now + delay``;
* an empty fault plan / absent telemetry leaves the schedule untouched,
  keeping runs bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.util.errors import SimBudgetExceededError, SimulationError

#: the horizon of a run with no ``until``: every scheduled time is below it
_INFINITY = float("inf")


class Event:
    """A one-shot occurrence at a point in simulated time.

    Processes wait on events by yielding them. An event carries an optional
    ``value`` delivered to every waiter when it succeeds. Events may be
    *succeeded* (normal) or *failed* (the waiting process sees the stored
    exception raised at its yield point).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when failed)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Hot path: an untriggered event is never queued, so this is the
        # zero-delay push of Environment._push, inlined.
        self._scheduled = True
        env = self.env
        now = env._now
        bucket = env._buckets.get(now)
        if bucket is None:
            env._buckets[now] = [1, self]
            heapq.heappush(env._times, now)
        else:
            bucket.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.env._push(self)
        return self

    def fire(self, env: "Environment") -> None:
        """Deliver the dispatched event to its callbacks, in order."""
        # Mark dispatched: run(until=event) keys off this to stop as
        # soon as the awaited event's callbacks have run, instead of
        # draining unrelated queue entries (e.g. the deregistered
        # losers of an any_of race).
        self._scheduled = False
        callbacks = self.callbacks
        if callbacks:
            if len(callbacks) == 1:
                callback = callbacks[0]
                callbacks.clear()
                callback(self)
            else:
                self.callbacks = []
                for callback in callbacks:
                    callback(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Create one with :meth:`Environment.timeout`. It is born triggered
    (successfully, with ``value``) and queued at ``now + delay``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        self._scheduled = True
        env._push_after(self, delay)


class _Resume:
    """Queue entry resuming a process whose yield target already triggered.

    Replaces the former proxy-``Event`` mechanism: one slotted object, no
    callback list, no closure — but the same single bucket slot, so the
    dispatch order is identical. ``target is None`` marks the process
    bootstrap (first ``send(None)``).
    """

    __slots__ = ("process", "target")

    def __init__(self, process: "Process", target: Optional[Event]) -> None:
        self.process = process
        self.target = target

    def fire(self, env: "Environment") -> None:
        target = self.target
        if target is None:
            self.process._step_send(None)
        elif target._ok:
            self.process._step_send(target._value)
        else:
            self.process._step_throw(target._value)


class _Deferred:
    """Queue entry re-delivering an already-triggered event to a callback.

    Used by the combinators so a pre-triggered member still propagates on
    the next scheduling round (ordering stays sane) without allocating a
    proxy ``Event``.
    """

    __slots__ = ("callback", "event")

    def __init__(self, callback: Callable[[Event], None], event: Event) -> None:
        self.callback = callback
        self.event = event

    def fire(self, env: "Environment") -> None:
        self.callback(self.event)


class Process(Event):
    """Wraps a generator as a schedulable simulation process.

    The process is itself an event that triggers with the generator's
    return value when it finishes, so processes can wait on each other
    (fork/join) simply by yielding the child process.

    An exception escaping the generator *fails* the process event:
    every waiter sees it re-raised at its own yield point (the SimPy
    semantic), which is how injected faults propagate from a device
    process up through RPC and request handlers. A process nobody will
    wait on is started with :meth:`Environment.spawn` instead, so its
    failure cannot be dropped unseen.
    """

    __slots__ = ("_generator", "_on_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self._generator = generator
        # The one bound-method callback this process registers on yield
        # targets — allocated once instead of per yield.
        self._on_target = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        env._push(_Resume(self, None))

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step_send(event._value)
        else:
            self._step_throw(event._value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Exception as error:
            # The generator died: fail the process event so waiters see
            # the exception at their yield point.
            if not self._triggered:
                self.fail(error)
            return
        self._wait_on(target)

    def _step_throw(self, exception: BaseException) -> None:
        try:
            target = self._generator.throw(exception)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Exception as error:
            if not self._triggered:
                self.fail(error)
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        cls = target.__class__
        if cls is not Timeout:
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, "
                    f"expected an Event"
                )
            if target.env is not self.env:
                raise SimulationError(
                    "process yielded an event from another Environment")
            if target._triggered:
                # Already-triggered non-timeout events resume the process
                # on the next scheduling round (value already available).
                self.env._push(_Resume(self, target))
                return
        elif target.env is not self.env:
            raise SimulationError(
                "process yielded an event from another Environment")
        target.callbacks.append(self._on_target)


class _Spawned(Process):
    """A process nobody can wait on: see :meth:`Environment.spawn`.

    Its generator finishing queues nothing, and an exception escaping
    it propagates out of the dispatch (and so out of
    :meth:`Environment.run`) instead of failing an event no one holds.
    """

    __slots__ = ()

    def _step_send(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration:
            self._triggered = True
            return
        self._wait_on(target)

    def _step_throw(self, exception: BaseException) -> None:
        try:
            target = self._generator.throw(exception)
        except StopIteration:
            self._triggered = True
            return
        self._wait_on(target)


class Environment:
    """The simulation environment: clock plus calendar event queue.

    The queue is two-tiered: ``_buckets`` maps each distinct scheduled
    time to a FIFO bucket (``[cursor, entry, entry, ...]`` — index 0 is
    the drain cursor, entries are appended and consumed in insertion
    order), and ``_times`` is a binary heap of the distinct times that
    currently have a bucket. Dispatch order is therefore exactly the
    documented ``(time, insertion counter)`` order of the former single
    heap, bucket membership standing in for the counter.

    ``timeline`` is the telemetry hook point: an optional
    :class:`~repro.telemetry.timeline.TimelineRun` that instrumented
    components (service runtimes, kernel devices) emit simulated-time
    events through. It is observation-only — the engine itself never
    consults it, so a timed and an untimed run schedule identically.
    Components bind it *once at construction* (the attach-time guard
    that keeps an untimed run's hot paths free of per-event checks), so
    install the timeline before building nodes and runtimes.

    ``faults`` is the fault-injection hook point: an optional
    :class:`~repro.faults.injector.FaultInjector` that instrumented
    devices consult at their injection points (normally installed via
    ``FaultInjector.attach``). The engine itself never consults it, and
    components treat ``None`` as "no faults", so an un-instrumented run
    schedules identically to one with no injector attached.
    """

    def __init__(self, initial_time: float = 0.0,
                 timeline: Optional[Any] = None,
                 faults: Optional[Any] = None) -> None:
        self._now = float(initial_time)
        self._buckets: dict = {}
        self._times: List[float] = []
        #: queue entries dispatched over the environment's lifetime.
        #: Maintained per drained bucket (not per entry) in the fast
        #: drain loops, so it is exact at run() boundaries but may lag
        #: mid-bucket; observation-only, nothing in the engine reads it.
        self.dispatched_events = 0
        self.timeline = timeline
        self.faults = faults

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def spawn(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> None:
        """Start a process from ``generator`` that nobody can wait on.

        The bootstrap takes the same queue slot as :meth:`process`, but
        there is no handle: the generator's return queues no completion
        entry, and an exception escaping it propagates out of
        :meth:`run` rather than failing an unheld event.
        """
        _Spawned(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when every event in ``events`` has.

        Delivers the list of individual values, in input order. Once the
        combinator resolves (first failure, or last success), its
        callbacks are deregistered from every still-pending member, so
        long-lived losing events do not retain the combinator's state.

        A member that is queued but not yet dispatched — every fresh
        :class:`Timeout` (triggered at creation, fires at ``delay``), or
        an event succeeded earlier this timestamp — counts as *pending*:
        the combinator waits for its dispatch instead of treating it as
        already resolved.
        """
        events = list(events)
        done = self.event()
        if not events:
            done.succeed([])
            return done
        values: List[Any] = [None] * len(events)
        pending = [len(events)]
        callbacks: List[Callable[[Event], None]] = []

        def deregister() -> None:
            for event, callback in zip(events, callbacks):
                try:
                    event.callbacks.remove(callback)
                except ValueError:
                    pass

        def make_callback(index: int) -> Callable[[Event], None]:
            def callback(event: Event) -> None:
                if done._triggered:
                    return
                if not event._ok:
                    done.fail(event._value)
                    deregister()
                    return
                values[index] = event._value
                pending[0] -= 1
                if pending[0] == 0:
                    done.succeed(list(values))

            return callback

        for index, event in enumerate(events):
            callback = make_callback(index)
            callbacks.append(callback)
            if event._triggered and not event._scheduled:
                # Already dispatched: its callbacks have run, so a new
                # one would never fire. Propagate on the next scheduling
                # round instead (formerly a proxy Event).
                self._push(_Deferred(callback, event))
            else:
                event.callbacks.append(callback)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds as soon as any event in ``events`` does.

        When the race resolves, the combinator's callback is removed from
        every losing event that has not yet dispatched — otherwise a
        long-lived loser (a response that never arrives, a far-future
        timeout) would pin the combinator's closure for its lifetime.

        A queued-but-undispatched member (every fresh :class:`Timeout`)
        is *pending*, not already-won: racing a response against
        ``timeout(t)`` resolves at the first of the two dispatches, so
        the timeout only wins when the response really is late.
        """
        events = list(events)
        done = self.event()
        if not events:
            done.succeed(None)
            return done

        def callback(event: Event) -> None:
            if done._triggered:
                return
            if event._ok:
                done.succeed(event._value)
            else:
                done.fail(event._value)
            for other in events:
                if other is not event:
                    try:
                        other.callbacks.remove(callback)
                    except ValueError:
                        pass

        for event in events:
            if event._triggered and not event._scheduled:
                self._push(_Deferred(callback, event))
            else:
                event.callbacks.append(callback)
        return done

    def _push(self, entry: Any) -> None:
        """Queue a raw entry (an event or a ``fire(env)`` object) now."""
        now = self._now
        bucket = self._buckets.get(now)
        if bucket is None:
            self._buckets[now] = [1, entry]
            heapq.heappush(self._times, now)
        else:
            bucket.append(entry)

    def _push_after(self, entry: Any, delay: float) -> None:
        """Queue a raw entry ``delay`` time units from now."""
        when = self._now + delay
        if not when >= self._now:
            raise SimulationError("event scheduled in the past")
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [1, entry]
            heapq.heappush(self._times, when)
        else:
            bucket.append(entry)

    def _pop(self) -> Any:
        """Remove and return the next queue entry, advancing the clock."""
        times = self._times
        when = times[0]
        bucket = self._buckets[when]
        cursor = bucket[0]
        item = bucket[cursor]
        bucket[cursor] = None
        cursor += 1
        if cursor == len(bucket):
            del self._buckets[when]
            heapq.heappop(times)
        else:
            bucket[0] = cursor
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        return item

    def step(self) -> None:
        """Process the single next entry in the event queue."""
        if not self._times:
            raise SimulationError("step() on an empty event queue")
        self._pop().fire(self)
        self.dispatched_events += 1

    def run(
        self,
        until: float | Event | None = None,
        *,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
        max_stalled_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        - ``until`` is a number: run until the clock reaches it (NaN is
          rejected).
        - ``until`` is an Event: run until that event triggers *and its
          callbacks have dispatched*; its value is returned (its
          exception raised when it failed). The run stops there — queue
          entries scheduled later (e.g. the deregistered losers of an
          ``any_of`` race, or a pending watchdog timeout) stay queued
          instead of being drained and silently advancing the clock.
        - ``until`` is None: run until no events remain.

        Watchdogs (all off by default; a run with none set takes the
        historical fast paths and is bit-identical):

        - ``max_events`` bounds how many queue entries this call may
          dispatch;
        - ``deadline`` bounds simulated time: dispatching an entry
          scheduled past it raises;
        - ``max_stalled_events`` bounds consecutive dispatches that do
          not advance the clock (livelock detection: two processes
          ping-ponging zero-delay events never advance ``now``).

        Each trips a :class:`~repro.util.errors.SimBudgetExceededError`
        naming the queue entry that was running — the stuck process —
        plus the event count and simulated time at the trip.
        """
        if until is not None and not isinstance(until, Event):
            until = float(until)
            if until != until:
                raise SimulationError("run(until=nan) has no horizon")
        if (max_events is not None or deadline is not None
                or max_stalled_events is not None):
            return self._run_guarded(until, max_events, deadline,
                                     max_stalled_events)
        if isinstance(until, Event):
            while not until._triggered or until._scheduled:
                if not self._times:
                    if until._triggered:
                        break
                    raise SimulationError(self._drained_message(until))
                self._pop().fire(self)
                self.dispatched_events += 1
            if not until.ok:
                raise until.value
            return until.value
        horizon = _INFINITY if until is None else until
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        timeout_cls = Timeout
        event_cls = Event
        process_cls = Process
        # Drain bucket by bucket up to the horizon: entries pushed at the
        # current time while draining append to the live bucket and are
        # picked up by the same inner loop — the dominant zero-delay
        # traffic never touches the heap. Event delivery is inlined for
        # timeouts (the hottest entry kind by far), plain events and
        # process completions; every other entry fires directly.
        while times:
            when = times[0]
            if when > horizon:
                break
            bucket = buckets[when]
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
            cursor = bucket[0]
            # The live cursor stays in the loop local; bucket[0] is
            # refreshed only at batch boundaries (try/finally keeps it
            # consistent if a callback raises). Nothing reads bucket[0]
            # mid-drain — pushes only append.
            try:
                size = len(bucket)
                while cursor < size:
                    while cursor < size:
                        item = bucket[cursor]
                        bucket[cursor] = None
                        cursor += 1
                        cls = item.__class__
                        if (cls is timeout_cls or cls is event_cls
                                or cls is process_cls):
                            item._scheduled = False
                            callbacks = item.callbacks
                            if callbacks:
                                if len(callbacks) == 1:
                                    callback = callbacks[0]
                                    callbacks.clear()
                                    callback(item)
                                else:
                                    item.callbacks = []
                                    for callback in callbacks:
                                        callback(item)
                        else:
                            item.fire(self)
                    size = len(bucket)
            finally:
                bucket[0] = cursor
            self.dispatched_events += cursor - 1
            del buckets[when]
            pop_time(times)
        if until is not None:
            self._now = max(self._now, horizon)
        return None

    def _drained_message(self, until: Event) -> str:
        name = getattr(until, "name", "")
        label = f"{type(until).__name__}"
        if name:
            label += f" {name!r}"
        return (f"event queue drained at t={self._now:g} before "
                f"the awaited {label} triggered")

    def _peek(self) -> tuple:
        """The (time, entry) of the next queue entry, without popping."""
        when = self._times[0]
        bucket = self._buckets[when]
        return when, bucket[bucket[0]]

    def _run_guarded(
        self,
        until: float | Event | None,
        max_events: Optional[int],
        deadline: Optional[float],
        max_stalled_events: Optional[int],
    ) -> Any:
        """The watchdogged run loop (any budget active).

        Slower than the fast paths — one comparison per guard per
        dispatch — which is why :meth:`run` only enters it when a
        budget is set: unguarded runs stay on the allocation-free loops
        and their exact historical behaviour.
        """
        times = self._times
        awaited = until if isinstance(until, Event) else None
        horizon = None if (until is None or awaited is not None) \
            else until
        dispatched = 0
        stalled = 0
        while True:
            if awaited is not None and awaited._triggered \
                    and not awaited._scheduled:
                break
            if not times:
                if awaited is not None and not awaited._triggered:
                    raise SimulationError(self._drained_message(awaited))
                break
            when, head = self._peek()
            if horizon is not None and when > horizon:
                break
            if deadline is not None and when > deadline:
                raise SimBudgetExceededError(
                    f"sim-time deadline {deadline:g} exceeded: next entry "
                    f"({self._entry_label(head)}) is scheduled at "
                    f"t={when:g} after {dispatched} event(s)",
                    budget="deadline", events=dispatched,
                    sim_time=self._now,
                    process=self._entry_label(head))
            if max_events is not None and dispatched >= max_events:
                raise SimBudgetExceededError(
                    f"event budget of {max_events} dispatches exhausted at "
                    f"t={self._now:g}; next entry is "
                    f"{self._entry_label(head)}",
                    budget="max_events", events=dispatched,
                    sim_time=self._now,
                    process=self._entry_label(head))
            advanced = when > self._now
            # The label must be taken before dispatch: dispatching clears
            # an event's callback list, which is how the waiting process
            # is identified.
            label = (self._entry_label(head)
                     if max_stalled_events is not None else "")
            self._pop().fire(self)
            dispatched += 1
            self.dispatched_events += 1
            if max_stalled_events is not None:
                if advanced:
                    stalled = 0
                else:
                    stalled += 1
                    if stalled > max_stalled_events:
                        raise SimBudgetExceededError(
                            f"livelock: {stalled} consecutive dispatches "
                            f"without advancing t={self._now:g}; last "
                            f"entry was {label}",
                            budget="livelock", events=dispatched,
                            sim_time=self._now, process=label)
        if horizon is not None:
            self._now = max(self._now, horizon)
            return None
        if awaited is not None:
            if not awaited.ok:
                raise awaited.value
            return awaited.value
        return None

    @staticmethod
    def _entry_label(item: Any) -> str:
        """Human-readable identity of one queue entry (for watchdogs)."""
        if isinstance(item, Process):
            return f"process {item.name!r}"
        if isinstance(item, _Resume):
            return f"process {item.process.name!r}"
        if isinstance(item, _Deferred):
            return f"deferred delivery of {type(item.event).__name__}"
        if isinstance(item, Event):
            label = (f"Timeout(delay={item.delay:g})"
                     if isinstance(item, Timeout)
                     else type(item).__name__)
            for callback in item.callbacks:
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, Process):
                    return f"{label} waking process {owner.name!r}"
            return label
        label = getattr(item, "label", None)
        if label:
            return str(label)
        return type(item).__name__
