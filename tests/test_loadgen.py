"""Unit tests for load generators."""

import numpy as np
import pytest

from repro.loadgen import (
    ClosedLoopGenerator,
    LoadSpec,
    OpenLoopGenerator,
)
from repro.sim import Environment
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.util.stats import Histogram


def _echo_submit(env, service_time=0.001):
    """A trivial backend that responds after a fixed service time."""
    def submit(handler):
        response = env.event()

        def responder():
            yield env.timeout(service_time)
            response.succeed(env.now)

        env.process(responder())
        return response

    return submit


class TestLoadSpec:
    def test_open_loop_factory(self):
        spec = LoadSpec.open_loop(5000)
        assert spec.kind == "open" and spec.qps == 5000

    def test_closed_loop_factory(self):
        spec = LoadSpec.closed_loop(8, think_time_s=0.01)
        assert spec.kind == "closed" and spec.connections == 8

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(kind="open", qps=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(kind="closed", connections=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(kind="banana")

    @pytest.mark.parametrize("make", [
        lambda: LoadSpec.open_loop(float("inf")),
        lambda: LoadSpec.open_loop(float("nan")),
        lambda: LoadSpec.closed_loop(2, think_time_s=float("nan")),
        lambda: LoadSpec.closed_loop(2, think_time_s=float("inf")),
        lambda: LoadSpec(kind="closed", connections=float("nan")),
    ], ids=["qps_inf", "qps_nan", "think_nan", "think_inf",
            "connections_nan"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ConfigurationError, match="finite"):
            make()


class TestOpenLoopGenerator:
    def test_injects_at_target_rate(self):
        env = Environment()
        gen = OpenLoopGenerator(
            env, _echo_submit(env), Histogram({"get": 1.0}),
            qps=10000, duration_s=0.1, rng_stream=RngStream(1),
        )
        gen.start()
        env.run()
        assert gen.recorder.issued == pytest.approx(1000, rel=0.15)
        assert gen.recorder.completed == gen.recorder.issued

    def test_open_loop_does_not_wait_for_responses(self):
        # Slow backend: issued count unaffected by service time.
        env = Environment()
        gen = OpenLoopGenerator(
            env, _echo_submit(env, service_time=10.0),
            Histogram({"get": 1.0}), qps=1000, duration_s=0.05,
            rng_stream=RngStream(2),
        )
        gen.start()
        env.run()
        assert gen.recorder.issued > 20

    def test_mix_respected(self):
        env = Environment()
        gen = OpenLoopGenerator(
            env, _echo_submit(env), Histogram({"get": 0.9, "set": 0.1}),
            qps=20000, duration_s=0.1, rng_stream=RngStream(3),
        )
        gen.start()
        env.run()
        gets = len(gen.recorder.by_handler.get("get", []))
        sets = len(gen.recorder.by_handler.get("set", []))
        assert gets > 5 * max(1, sets)

    def test_latency_recorded(self):
        env = Environment()
        gen = OpenLoopGenerator(
            env, _echo_submit(env, service_time=0.002),
            Histogram({"get": 1.0}), qps=5000, duration_s=0.05,
            rng_stream=RngStream(4),
        )
        gen.start()
        env.run()
        assert gen.recorder.mean == pytest.approx(0.002, rel=0.05)
        assert gen.recorder.percentile(99) >= gen.recorder.percentile(50)


class TestClosedLoopGenerator:
    def test_one_outstanding_per_connection(self):
        env = Environment()
        gen = ClosedLoopGenerator(
            env, _echo_submit(env, service_time=0.01),
            Histogram({"get": 1.0}), connections=2, duration_s=0.1,
            rng_stream=RngStream(6),
        )
        gen.start()
        env.run()
        # 2 connections * (0.1s / 0.01s) = ~20 requests.
        assert gen.recorder.completed == pytest.approx(20, abs=4)

    def test_think_time_throttles(self):
        env = Environment()
        gen = ClosedLoopGenerator(
            env, _echo_submit(env, service_time=0.001),
            Histogram({"get": 1.0}), connections=1, duration_s=0.1,
            rng_stream=RngStream(7), think_time_s=0.01,
        )
        gen.start()
        env.run()
        assert gen.recorder.completed <= 11

    def test_empty_recorder_mean_rejected(self):
        from repro.loadgen import LatencyRecorder
        with pytest.raises(ConfigurationError):
            LatencyRecorder().mean


class TestHandlerDraws:
    """Bisecting the CDF list picks what ``searchsorted`` picked."""

    @pytest.mark.parametrize("weights", [
        {"get": 0.9, "set": 0.1},
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 0.0, "e": 1e-9},
        {"only": 5.0},
    ])
    def test_bisect_matches_searchsorted(self, weights):
        from bisect import bisect_right

        from repro.loadgen.generator import _handler_sampler

        mix = Histogram(weights)
        cdf, names, last = _handler_sampler(mix)
        keys, probs = mix.keys_and_probs()
        reference = np.cumsum(probs)
        reference /= reference[-1]
        assert cdf == reference.tolist()
        rng = np.random.default_rng(3)
        # every CDF value exactly, its neighbours, the ends, random draws
        draws = [float(u) for value in reference
                 for u in (np.nextafter(value, 0.0), value,
                           np.nextafter(value, 2.0))]
        draws += [0.0, 1.0] + rng.random(500).tolist()
        for u in draws:
            want = str(keys[min(reference.searchsorted(u, side="right"),
                                last)])
            assert names[min(bisect_right(cdf, u), last)] == want, u
