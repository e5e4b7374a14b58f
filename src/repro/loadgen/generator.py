"""Open- and closed-loop request generators."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim import Environment, Event
from repro.util.errors import (
    CircuitOpenError,
    ConfigurationError,
    LoadSheddedError,
    ReproError,
    RetryExhaustedError,
    RpcTimeoutError,
)
from repro.util.rng import RngStream
from repro.util.stats import Histogram, percentile

#: a callable the runtime provides: submit(handler_name) -> response Event
SubmitFn = Callable[[str], Event]

#: the per-request outcome vocabulary recorders count
REQUEST_OUTCOMES = ("ok", "timeout", "shed", "error")


def _handler_sampler(mix: Histogram) -> Tuple[List[float], List[str], int]:
    """(CDF, handler names, last index) for inverse-CDF handler draws.

    ``names[min(bisect_right(cdf, rng.random()), last)]`` replicates
    ``rng.choice(keys, p=probs)`` bit-for-bit: the same single
    ``rng.random()`` per request, compared against the same float64
    CDF values (held as a Python list, so a draw is one ``bisect``
    instead of a NumPy call).
    """
    keys, probs = mix.keys_and_probs()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.tolist(), [str(key) for key in keys], len(keys) - 1


def classify_failure(error: BaseException) -> str:
    """Map a failed request's exception to its outcome bucket.

    Timeouts (including a retry budget that died timing out) are
    ``"timeout"``, admission rejections are ``"shed"``, everything else
    the library raises — injected faults, open circuit breakers — is
    ``"error"``.
    """
    if isinstance(error, RpcTimeoutError):
        return "timeout"
    if isinstance(error, RetryExhaustedError):
        if isinstance(error.last_error, RpcTimeoutError):
            return "timeout"
        return "error"
    if isinstance(error, (LoadSheddedError, CircuitOpenError)):
        return "shed" if isinstance(error, LoadSheddedError) else "error"
    return "error"


@dataclass
class LatencyRecorder:
    """Collects per-request latencies and outcomes, grouped by handler.

    Latency percentiles cover *successful* requests only; failed
    requests land in ``outcomes`` (``timeout`` / ``shed`` / ``error``)
    and in ``failures_by_handler``, so error rates are first-class
    alongside the latency distribution instead of polluting it.
    """

    samples: List[float] = field(default_factory=list)
    by_handler: Dict[str, List[float]] = field(default_factory=dict)
    completed: int = 0
    issued: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    failures_by_handler: Dict[str, Dict[str, int]] = field(
        default_factory=dict)

    def record(self, handler: str, latency_s: float) -> None:
        """Record one successfully completed request."""
        self.samples.append(latency_s)
        self.by_handler.setdefault(handler, []).append(latency_s)
        self.completed += 1
        self.outcomes["ok"] = self.outcomes.get("ok", 0) + 1

    def record_failure(self, handler: str, outcome: str) -> None:
        """Record one failed request under its outcome bucket."""
        if outcome not in REQUEST_OUTCOMES or outcome == "ok":
            raise ConfigurationError(
                f"not a failure outcome: {outcome!r}")
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        per_handler = self.failures_by_handler.setdefault(handler, {})
        per_handler[outcome] = per_handler.get(outcome, 0) + 1

    @property
    def failed(self) -> int:
        """Requests that finished without a successful response."""
        return sum(count for outcome, count in self.outcomes.items()
                   if outcome != "ok")

    @property
    def error_rate(self) -> float:
        """Failed fraction of finished requests (0.0 when none failed)."""
        finished = self.completed + self.failed
        if finished <= 0:
            return 0.0
        return self.failed / finished

    def outcome_counts(self) -> Dict[str, int]:
        """All outcome buckets, zero-filled for stability in summaries."""
        return {outcome: self.outcomes.get(outcome, 0)
                for outcome in REQUEST_OUTCOMES}

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds over all handlers."""
        return percentile(self.samples, q)

    @property
    def mean(self) -> float:
        """Average latency in seconds."""
        if not self.samples:
            raise ConfigurationError("no latency samples recorded")
        return float(sum(self.samples) / len(self.samples))


@dataclass(frozen=True)
class LoadSpec:
    """One load point.

    Open-loop: ``qps`` mean rate of Poisson arrivals; closed-loop:
    ``connections`` each keeping one outstanding request with
    ``think_time_s`` between completions.
    """

    kind: str                      # "open" | "closed"
    qps: float = 0.0
    connections: int = 0
    think_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("open", "closed"):
            raise ConfigurationError(f"unknown load kind {self.kind!r}")
        for name in ("qps", "connections", "think_time_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}")
        if self.kind == "open" and self.qps <= 0:
            raise ConfigurationError("open-loop load needs qps > 0")
        if self.kind == "closed" and self.connections < 1:
            raise ConfigurationError("closed-loop load needs connections >= 1")
        if self.think_time_s < 0:
            raise ConfigurationError("think time must be non-negative")

    @staticmethod
    def open_loop(qps: float) -> "LoadSpec":
        """An open-loop (mutated/tcpkali/wrk2-style) load point."""
        return LoadSpec(kind="open", qps=qps)

    @staticmethod
    def closed_loop(connections: int, think_time_s: float = 0.0) -> "LoadSpec":
        """A closed-loop (YCSB-style) load point."""
        return LoadSpec(kind="closed", connections=connections,
                        think_time_s=think_time_s)


class OpenLoopGenerator:
    """Injects Poisson arrivals at a mean rate, regardless of completions.

    Each arrival draws its exponential gap and then its handler from one
    RNG stream, one request at a time.
    """

    def __init__(
        self,
        env: Environment,
        submit: SubmitFn,
        mix: Histogram,
        qps: float,
        duration_s: float,
        rng_stream: RngStream,
        recorder: Optional[LatencyRecorder] = None,
    ) -> None:
        if qps <= 0 or duration_s <= 0:
            raise ConfigurationError("qps and duration must be positive")
        self.env = env
        self.submit = submit
        self.mix = mix
        self.qps = qps
        self.duration_s = duration_s
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self._rng = rng_stream.rng("openloop")

    def start(self) -> Event:
        """Start injecting; returns the injector process."""
        return self.env.process(self._inject(), name="open-loop")

    def _inject(self):
        end = self.env.now + self.duration_s
        cdf, names, last = _handler_sampler(self.mix)
        rng = self._rng
        env = self.env
        recorder = self.recorder
        while env.now < end:
            gap = float(rng.exponential(1.0 / self.qps))
            yield env.timeout(gap)
            if env.now >= end:
                break
            handler = names[min(bisect_right(cdf, rng.random()), last)]
            recorder.issued += 1
            env.spawn(self._track(handler), name="req")

    def _track(self, handler: str):
        start = self.env.now
        try:
            response = self.submit(handler)
            yield response
        except ReproError as error:
            self.recorder.record_failure(handler, classify_failure(error))
            return
        self.recorder.record(handler, self.env.now - start)


class ClosedLoopGenerator:
    """N connections, each one outstanding request at a time (YCSB)."""

    def __init__(
        self,
        env: Environment,
        submit: SubmitFn,
        mix: Histogram,
        connections: int,
        duration_s: float,
        rng_stream: RngStream,
        recorder: Optional[LatencyRecorder] = None,
        think_time_s: float = 0.0,
    ) -> None:
        if connections < 1 or duration_s <= 0:
            raise ConfigurationError("connections and duration must be positive")
        self.env = env
        self.submit = submit
        self.mix = mix
        self.connections = connections
        self.duration_s = duration_s
        self.think_time_s = think_time_s
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self._rng_stream = rng_stream

    def start(self) -> Event:
        """Start all connections; returns a join event over them."""
        procs = [
            self.env.process(self._connection(i), name=f"conn-{i}")
            for i in range(self.connections)
        ]
        return self.env.all_of(procs)

    def _connection(self, index: int):
        rng = self._rng_stream.rng("closedloop", str(index))
        cdf, names, last = _handler_sampler(self.mix)
        end = self.env.now + self.duration_s
        while self.env.now < end:
            handler = names[min(bisect_right(cdf, rng.random()), last)]
            start = self.env.now
            self.recorder.issued += 1
            try:
                response = self.submit(handler)
                yield response
            except ReproError as error:
                self.recorder.record_failure(handler,
                                             classify_failure(error))
            else:
                self.recorder.record(handler, self.env.now - start)
            if self.think_time_s > 0:
                yield self.env.timeout(self.think_time_s)


def build_generator(
    env: Environment,
    submit: SubmitFn,
    mix: Histogram,
    load: LoadSpec,
    duration_s: float,
    rng_stream: RngStream,
    recorder: Optional[LatencyRecorder] = None,
):
    """Instantiate the right generator for a :class:`LoadSpec`."""
    if load.kind == "open":
        return OpenLoopGenerator(
            env, submit, mix, load.qps, duration_s, rng_stream,
            recorder=recorder,
        )
    return ClosedLoopGenerator(
        env, submit, mix, load.connections, duration_s, rng_stream,
        recorder=recorder, think_time_s=load.think_time_s,
    )
