"""Unit tests for spans, the tracer, and dependency-graph extraction."""

import pytest

from repro.tracing import SpanKind, Tracer, extract_dependency_graph
from repro.util.errors import ConfigurationError, ProfilingError


def _make_trace(tracer, services):
    """Build one synthetic trace: services[0] -> services[1] -> ..."""
    trace_id = tracer.start_trace()
    t = 0.0
    parent_id = None
    open_spans = []
    for depth, (service, op) in enumerate(services):
        server = tracer.start_span(trace_id, service, op, SpanKind.SERVER,
                                   t, parent_id=parent_id)
        open_spans.append(server)
        if depth + 1 < len(services):
            client = tracer.start_span(
                trace_id, service, f"call_{services[depth + 1][0]}",
                SpanKind.CLIENT, t + 0.001,
                parent_id=server.span_id,
                tags={"request_bytes": 100.0, "response_bytes": 200.0},
            )
            open_spans.append(client)
            parent_id = client.span_id
        t += 0.001
    for span in reversed(open_spans):
        span.finish(t + 0.01)
    return trace_id


class TestSpan:
    def test_duration(self):
        tracer = Tracer()
        trace = tracer.start_trace()
        span = tracer.start_span(trace, "svc", "op", SpanKind.SERVER, 1.0)
        span.finish(1.5)
        assert span.duration == pytest.approx(0.5)

    def test_finish_before_start_rejected(self):
        tracer = Tracer()
        trace = tracer.start_trace()
        span = tracer.start_span(trace, "svc", "op", SpanKind.SERVER, 1.0)
        with pytest.raises(ConfigurationError):
            span.finish(0.5)


class TestTracer:
    def test_full_sampling_records_all(self):
        tracer = Tracer(sample_rate=1.0)
        for _ in range(5):
            _make_trace(tracer, [("a", "op")])
        assert len(tracer.finished_spans()) == 5

    def test_zero_sampling_records_none(self):
        tracer = Tracer(sample_rate=0.0)
        trace = tracer.start_trace()
        assert tracer.start_span(trace, "a", "op", SpanKind.SERVER, 0.0) is None

    def test_partial_sampling_is_per_trace(self):
        tracer = Tracer(sample_rate=0.5, seed=3)
        sampled = sum(tracer.is_sampled(tracer.start_trace())
                      for _ in range(200))
        assert 50 < sampled < 150

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=1.5)

    def test_traces_grouping(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "op"), ("b", "op2")])
        grouped = tracer.traces()
        assert len(grouped) == 1
        spans = next(iter(grouped.values()))
        assert len(spans) == 3  # server a, client, server b


class TestTracerMemory:
    """Regression: the per-trace verdict map must not grow unboundedly."""

    def test_end_trace_evicts_verdict(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.start_trace()
        assert tracer.open_traces == 1
        assert tracer.is_sampled(trace)
        tracer.end_trace(trace)
        assert tracer.open_traces == 0
        # Ended traces read as unsampled; spans already recorded remain.
        assert not tracer.is_sampled(trace)

    def test_end_trace_tolerates_unknown_ids(self):
        tracer = Tracer()
        tracer.end_trace(12345)
        trace = tracer.start_trace()
        tracer.end_trace(trace)
        tracer.end_trace(trace)     # double-end is fine
        assert tracer.open_traces == 0

    def test_experiment_run_leaves_no_open_traces(self):
        # Regression: before end_trace the verdict map kept one entry
        # per injected request for the life of the tracer.
        from repro.app.service import Deployment
        from repro.app.workloads import build_redis
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, run_experiment
        tracer = Tracer(sample_rate=0.5, seed=11)
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                                  seed=3, tracer=tracer)
        result = run_experiment(Deployment.single(build_redis()),
                                LoadSpec.open_loop(2000), config)
        assert result.service("redis").requests > 10
        assert tracer.open_traces == 0

    def test_reset_restores_fresh_state(self):
        tracer = Tracer(sample_rate=1.0)
        _make_trace(tracer, [("a", "op"), ("b", "op2")])
        tracer.start_trace()    # left open on purpose
        assert tracer.spans and tracer.open_traces > 0
        tracer.reset()
        assert tracer.spans == []
        assert tracer.open_traces == 0
        # Id counters restart like a fresh tracer's.
        trace = tracer.start_trace()
        assert trace == 1
        span = tracer.start_span(trace, "svc", "op", SpanKind.SERVER, 0.0)
        assert span.span_id == 1


class TestDependencyGraph:
    def test_two_tier_chain(self):
        tracer = Tracer()
        for _ in range(3):
            _make_trace(tracer, [("frontend", "get"), ("backend", "fetch")])
        graph = extract_dependency_graph(tracer.finished_spans())
        assert graph.root_services == ["frontend"]
        assert graph.downstreams("frontend") == ["backend"]
        stats = graph.edge("frontend", "backend")
        assert stats.calls == 3
        assert stats.operations == {"fetch": 3}
        assert stats.request_bytes.mean == pytest.approx(100.0)

    def test_three_tier_chain_topological_order(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "x"), ("b", "y"), ("c", "z")])
        graph = extract_dependency_graph(tracer.finished_spans())
        order = graph.services()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_operation_mix_collected(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "read")])
        _make_trace(tracer, [("a", "read")])
        _make_trace(tracer, [("a", "write")])
        graph = extract_dependency_graph(tracer.finished_spans())
        assert graph.operation_mix["a"] == {"read": 2.0, "write": 1.0}

    def test_fanout_counted_per_parent(self):
        tracer = Tracer()
        trace = tracer.start_trace()
        root = tracer.start_span(trace, "root", "op", SpanKind.SERVER, 0.0)
        for i in range(3):
            client = tracer.start_span(trace, "root", "call", SpanKind.CLIENT,
                                       0.001, parent_id=root.span_id)
            child = tracer.start_span(trace, "leaf", "op", SpanKind.SERVER,
                                      0.002, parent_id=client.span_id)
            child.finish(0.003)
            client.finish(0.004)
        root.finish(0.01)
        graph = extract_dependency_graph(tracer.finished_spans())
        assert graph.edge("root", "leaf").calls_per_parent == pytest.approx(3.0)

    def test_empty_spans_rejected(self):
        with pytest.raises(ProfilingError):
            extract_dependency_graph([])

    def test_two_service_cycle_rejected(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "x"), ("b", "y")])
        _make_trace(tracer, [("b", "y"), ("a", "x")])
        with pytest.raises(ProfilingError, match="cycle"):
            extract_dependency_graph(tracer.finished_spans())

    def test_order_is_kahn_by_generations(self):
        # Roots in first-seen order, then each generation's callees in
        # the order their last caller freed them.
        tracer = Tracer()
        _make_trace(tracer, [("a", "op"), ("c", "op"), ("d", "op")])
        _make_trace(tracer, [("b", "op"), ("d", "op")])
        _make_trace(tracer, [("a", "op"), ("b", "op")])
        graph = extract_dependency_graph(tracer.finished_spans())
        assert graph.edges() == [("a", "c"), ("a", "b"), ("c", "d"),
                                 ("b", "d")]
        assert graph.services() == ["a", "c", "b", "d"]

    def test_missing_edge_rejected(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "op")])
        graph = extract_dependency_graph(tracer.finished_spans())
        with pytest.raises(ProfilingError):
            graph.edge("a", "ghost")

    def test_socialnet_runtime_traces_extract_to_dag(self):
        # Integration: real runtime traces from the Social Network.
        from repro.app.workloads.socialnet import social_network_deployment
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, run_experiment
        from repro.tracing import Tracer as T
        tracer = T(sample_rate=1.0)
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03,
                                  seed=2, tracer=tracer)
        run_experiment(social_network_deployment(), LoadSpec.open_loop(600),
                       config)
        graph = extract_dependency_graph(tracer.finished_spans())
        assert "frontend" in graph.root_services
        assert "social-graph-service" in graph.services()
        # home-timeline calls both the social graph and post storage.
        downstream = set(graph.downstreams("home-timeline-service"))
        assert {"social-graph-service", "post-storage-service"} <= downstream
