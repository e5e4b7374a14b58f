"""Tests for the experiment driver: config plumbing and invariants."""

import re
from dataclasses import replace

import pytest

from repro.app.service import Deployment
from repro.app.workloads import build_memcached, build_nginx
from repro.app.workloads.socialnet import social_network_deployment
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.runtime import ExperimentConfig, run_experiment
from repro.runtime.resilience import ResilienceConfig
from repro.tracing import Tracer
from repro.util.errors import ConfigurationError, SimBudgetExceededError
from repro.util.spec_hash import stable_digest


class TestExperimentConfig:
    def test_duration_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.0)

    @pytest.mark.parametrize("field,value", [
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("sim_deadline_s", float("nan")),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(platform=PLATFORM_A, **{field: value})

    def test_watchdog_budgets_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01,
                             max_sim_events=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01,
                             max_stalled_events=0)
        with pytest.raises(ConfigurationError):
            # A deadline shorter than the run itself always trips.
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01,
                             sim_deadline_s=0.005)


class TestSimWatchdogs:
    def test_tiny_event_budget_trips(self):
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.01,
                                  seed=7, max_sim_events=50)
        with pytest.raises(SimBudgetExceededError) as excinfo:
            run_experiment(Deployment.single(build_memcached()),
                           LoadSpec.open_loop(40_000), config)
        assert excinfo.value.budget == "max_events"

    def test_generous_budgets_leave_results_identical(self):
        deployment = Deployment.single(build_memcached())
        load = LoadSpec.open_loop(40_000)
        plain = run_experiment(deployment, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.01, seed=7))
        guarded = run_experiment(deployment, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.01, seed=7,
            max_sim_events=50_000_000, sim_deadline_s=10.0,
            max_stalled_events=1_000_000))
        assert stable_digest(
            {n: m.snapshot() for n, m in plain.services.items()}
        ) == stable_digest(
            {n: m.snapshot() for n, m in guarded.services.items()})
        assert plain.latency.completed == guarded.latency.completed


def _one_request_env():
    """A memcached runtime on its own node with one client request queued."""
    from repro.kernelsim.node import Node
    from repro.runtime.pricing import BlockPricer
    from repro.runtime.service import NodeState, ServiceRuntime
    from repro.sim import Environment

    env = Environment()
    spec = build_memcached()
    node = Node(env, PLATFORM_A, name="node0")
    runtime = ServiceRuntime(
        env=env, spec=spec, node=node, node_state=NodeState(node=node),
        pricer=BlockPricer(PLATFORM_A))
    runtime.start()
    handler = next(iter(spec.program.handlers))
    response = runtime.submit(handler, src_node="client")
    return env, response


def _step_until_head(env, predicate):
    """Dispatch entries until the next one's watchdog label matches."""
    while True:
        label = env._entry_label(env._peek()[1])
        if predicate(label):
            return label
        env.step()


class TestWatchdogNames:
    """A trip names the queued entry it stopped at, whatever its kind."""

    def test_cross_node_reply_is_named(self):
        env, response = _one_request_env()
        _step_until_head(env, lambda label: "reply" in label)
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(max_events=0)
        assert excinfo.value.budget == "max_events"
        assert "reply" in excinfo.value.process
        assert "memcached" in excinfo.value.process
        # its first slot schedules the second one a wire latency later
        sent = env.now
        env.step()
        _step_until_head(env, lambda label: "reply" in label)
        assert not response.triggered
        when, _ = env._peek()
        assert when == sent + 30e-6  # the runtime's default latency
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(deadline=sent)
        assert excinfo.value.budget == "deadline"
        assert "reply" in excinfo.value.process
        assert "memcached" in excinfo.value.process
        env.run()
        assert response.triggered and response.value == when

    @pytest.mark.parametrize("kind,device", [
        ("cpu-execute", "node0-cpu"),
        ("nic-transmit", "node0-nic"),
    ])
    def test_device_ops_are_named_by_their_labels(self, kind, device):
        env, _ = _one_request_env()
        expected = f"{kind} on {device!r}"
        _step_until_head(env, lambda label: label == expected)
        with pytest.raises(SimBudgetExceededError) as excinfo:
            env.run(max_events=0)
        assert excinfo.value.process == expected


class TestDeterminism:
    def test_same_seed_same_result(self):
        deployment = Deployment.single(build_memcached())
        load = LoadSpec.open_loop(40000)
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=7)
        first = run_experiment(deployment, load, config)
        second = run_experiment(deployment, load, config)
        assert first.latency.completed == second.latency.completed
        assert first.latency_ms(99) == pytest.approx(second.latency_ms(99))
        assert first.service("memcached").timing.cycles == pytest.approx(
            second.service("memcached").timing.cycles)

    def test_different_seed_different_arrivals(self):
        deployment = Deployment.single(build_memcached())
        load = LoadSpec.open_loop(40000)
        a = run_experiment(deployment, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.02, seed=1))
        b = run_experiment(deployment, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.02, seed=2))
        assert a.latency.completed != b.latency.completed


class TestAccountingInvariants:
    def test_all_issued_requests_complete(self):
        deployment = Deployment.single(build_nginx())
        result = run_experiment(
            deployment, LoadSpec.open_loop(15000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=3))
        assert result.latency.completed == result.latency.issued

    def test_entry_requests_match_recorder(self):
        deployment = Deployment.single(build_nginx())
        result = run_experiment(
            deployment, LoadSpec.open_loop(15000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=3))
        assert (result.service("nginx").requests
                == result.latency.completed)

    def test_downstream_requests_at_least_fanout(self):
        deployment = social_network_deployment()
        result = run_experiment(
            deployment, LoadSpec.open_loop(600),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=3))
        frontend = result.service("frontend").requests
        # Every home-timeline read fans into the social graph; composes
        # add more via write-home-timeline.
        assert result.service("social-graph-service").requests > 0
        assert result.service("frontend").requests >= frontend

    def test_latency_percentiles_ordered(self):
        deployment = Deployment.single(build_memcached())
        result = run_experiment(
            deployment, LoadSpec.open_loop(120000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.03, seed=3))
        assert (result.latency_ms(50) <= result.latency_ms(95)
                <= result.latency_ms(99))

    def test_utilisation_bounded(self):
        deployment = Deployment.single(build_memcached())
        result = run_experiment(
            deployment, LoadSpec.open_loop(400000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=3))
        for value in result.node_utilisation.values():
            assert 0.0 <= value <= 1.0


class TestTracerPlumbing:
    def test_supplied_tracer_collects_spans(self):
        tracer = Tracer()
        deployment = social_network_deployment()
        run_experiment(
            deployment, LoadSpec.open_loop(400),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=3,
                             tracer=tracer))
        assert tracer.finished_spans()
        services = {span.service for span in tracer.finished_spans()}
        assert "frontend" in services

    @pytest.mark.parametrize("resilience", [None, ResilienceConfig(
        rpc_timeout_s=2e-4)], ids=["bare", "retrying"])
    def test_tracing_is_digest_neutral(self, monkeypatch, resilience):
        # A tracer only observes: the traced run gives the result digest
        # of the untraced one, and a run without a tracer traces nothing.
        # The retrying run also traces timed-out and retried attempts.
        from tests.test_perf_equivalence import _result_digest

        deployment = social_network_deployment()
        load = LoadSpec.open_loop(1500)
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=3, resilience=resilience)
        tracer = Tracer()
        traced = run_experiment(deployment, load,
                                replace(config, tracer=tracer))
        assert len(tracer.finished_spans()) > traced.latency.completed
        if resilience is not None:
            assert any(span.tags.get("timed_out") for span in tracer.spans)

        def no_span(*_args, **_kwargs):
            raise AssertionError("a run without a tracer opened a span")

        monkeypatch.setattr(Tracer, "start_span", no_span)
        plain = run_experiment(deployment, load, config)
        assert _result_digest(plain) == _result_digest(traced)
        assert plain.events_dispatched == traced.events_dispatched


class TestNoSilentLoss:
    """Every issued request ends in an outcome, or the run raises."""

    @staticmethod
    def _memcached_reading(file):
        import dataclasses

        from repro.app.program import SyscallOp
        from repro.kernelsim.syscalls import SyscallInvocation

        spec = build_memcached()
        name, handler = next(iter(spec.program.handlers.items()))
        handler = dataclasses.replace(handler, ops=tuple(handler.ops) + (
            SyscallOp(SyscallInvocation("pread", nbytes=4096, file=file)),))
        return dataclasses.replace(spec, program=dataclasses.replace(
            spec.program, handlers={**spec.program.handlers,
                                    name: handler}))

    def test_handler_reading_undeclared_file_raises(self):
        # formerly: 52 issued, 0 completed, every outcome 0, error_rate 0
        with pytest.raises(ConfigurationError, match="no such file 'nope'"):
            run_experiment(
                Deployment.single(self._memcached_reading("nope")),
                LoadSpec.open_loop(10_000),
                ExperimentConfig(platform=PLATFORM_A, duration_s=0.005,
                                 seed=7))

    def test_unfinished_request_raises(self, monkeypatch):
        from repro.runtime.service import ServiceRuntime
        from repro.util.errors import SimulationError

        submit = ServiceRuntime.submit
        submitted = []

        def lossy(self, handler, *args, **kwargs):
            response = submit(self, handler, *args, **kwargs)
            submitted.append(handler)
            if len(submitted) == 3:
                return self.env.event()  # the client never hears back
            return response

        monkeypatch.setattr(ServiceRuntime, "submit", lossy)
        with pytest.raises(SimulationError) as excinfo:
            run_experiment(
                Deployment.single(build_memcached()),
                LoadSpec.open_loop(10_000),
                ExperimentConfig(platform=PLATFORM_A, duration_s=0.005,
                                 seed=7))
        issued, finished = map(int, re.findall(r"\d+", str(excinfo.value)))
        assert issued == len(submitted) and finished == issued - 1
