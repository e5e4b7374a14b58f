"""Unit tests for spans, the tracer, and the topology reducer."""

import pytest

from repro.tracing import SpanKind, Tracer, analyze_topology
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
    def test_finish_before_start_rejected(self):
        tracer = Tracer()
        trace = tracer.start_trace()
        span = tracer.start_span(trace, "svc", "op", SpanKind.SERVER, 1.0)
        with pytest.raises(ConfigurationError):
            span.finish(0.5)


class TestTracer:
    def test_full_sampling_records_all(self):
        tracer = Tracer()
        for _ in range(5):
            _make_trace(tracer, [("a", "op")])
        assert len(tracer.finished_spans()) == 5


class TestDependencyGraph:
    def test_two_tier_chain(self):
        tracer = Tracer()
        for _ in range(3):
            _make_trace(tracer, [("frontend", "get"), ("backend", "fetch")])
        topology = analyze_topology(tracer.finished_spans())
        assert topology.entry_service == "frontend"
        assert topology.tiers == ["frontend", "backend"]
        assert topology.edges == [("frontend", "backend", 3)]
        assert topology.fan_out("frontend") == 1
        assert topology.fan_out("backend") == 0

    def test_three_tier_chain_topological_order(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "x"), ("b", "y"), ("c", "z")])
        topology = analyze_topology(tracer.finished_spans())
        assert topology.tiers == ["a", "b", "c"]

    def test_fanout_counted_per_parent(self):
        # Three calls from one parent execution are three calls on one
        # edge, and one distinct downstream.
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
        topology = analyze_topology(tracer.finished_spans())
        assert topology.edges == [("root", "leaf", 3)]
        assert topology.fan_out("root") == 1

    def test_entry_is_the_busiest_root(self):
        tracer = Tracer()
        _make_trace(tracer, [("batch", "op"), ("store", "op")])
        for _ in range(2):
            _make_trace(tracer, [("frontend", "op"), ("store", "op")])
        topology = analyze_topology(tracer.finished_spans())
        assert topology.entry_service == "frontend"
        assert topology.tiers == ["batch", "frontend", "store"]

    def test_unfinished_spans_ignored(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "op"), ("b", "op")])
        trace = tracer.start_trace()
        root = tracer.start_span(trace, "a", "op", SpanKind.SERVER, 0.0)
        tracer.start_span(trace, "a", "call", SpanKind.CLIENT, 0.001,
                          parent_id=root.span_id)    # never finished
        root.finish(0.01)
        topology = analyze_topology(tracer.spans)
        assert topology.edges == [("a", "b", 1)]

    def test_empty_spans_rejected(self):
        with pytest.raises(ProfilingError, match="no finished spans"):
            analyze_topology([])

    def test_two_service_cycle_rejected(self):
        tracer = Tracer()
        _make_trace(tracer, [("a", "x"), ("b", "y")])
        _make_trace(tracer, [("b", "y"), ("a", "x")])
        with pytest.raises(ProfilingError, match="cycle"):
            analyze_topology(tracer.finished_spans())

    def test_rootless_spans_rejected(self):
        # A server span whose parent was not traced is not a root.
        tracer = Tracer()
        trace = tracer.start_trace()
        orphan = tracer.start_span(trace, "a", "op", SpanKind.SERVER, 0.0,
                                   parent_id=99)
        orphan.finish(0.01)
        with pytest.raises(ProfilingError, match="no root"):
            analyze_topology(tracer.finished_spans())

    def test_order_is_kahn_by_generations(self):
        # Roots in first-seen order, then each generation's callees in
        # the order their last caller freed them.
        tracer = Tracer()
        _make_trace(tracer, [("a", "op"), ("c", "op"), ("d", "op")])
        _make_trace(tracer, [("b", "op"), ("d", "op")])
        _make_trace(tracer, [("a", "op"), ("b", "op")])
        topology = analyze_topology(tracer.finished_spans())
        assert topology.edges == [("a", "c", 1), ("a", "b", 1),
                                  ("c", "d", 1), ("b", "d", 1)]
        assert topology.tiers == ["a", "c", "b", "d"]

    def test_socialnet_runtime_traces_extract_to_dag(self):
        # Integration: real runtime traces from the Social Network.
        from repro.app.workloads.socialnet import social_network_deployment
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, run_experiment
        tracer = Tracer()
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.03,
                                  seed=2, tracer=tracer)
        run_experiment(social_network_deployment(), LoadSpec.open_loop(600),
                       config)
        topology = analyze_topology(tracer.finished_spans())
        assert topology.entry_service == "frontend"
        assert "social-graph-service" in topology.tiers
        # home-timeline calls both the social graph and post storage.
        downstream = {callee for caller, callee, _ in topology.edges
                      if caller == "home-timeline-service"}
        assert {"social-graph-service", "post-storage-service"} <= downstream
