"""Telemetry: registry semantics, spans, exports, and pipeline wiring."""

import json
import os

import pytest

from repro.app.workloads import two_tier_deployment
from repro.core import CloneRequest, DittoCloner
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget
from repro.runtime import ExperimentConfig
from repro.fleet.obs import FlightRecorder, read_flight_log
from repro.telemetry import (
    MetricsRegistry,
    SimTimeline,
    Telemetry,
    current_session,
    span,
)
from repro.telemetry.chrometrace import chrome_trace
from repro.telemetry.registry import MAX_SERIES_PER_METRIC
from repro.telemetry.report import main as report_main
from repro.telemetry.spans import _NOOP
from repro.util import ConfigurationError, stable_digest

FAST_BUDGET = ProfilingBudget(
    sampled_requests=6, max_accesses_per_spec=384,
    max_istream_per_block=1024, branch_outcomes_per_site=96,
    max_sites_per_population=6, dep_samples_per_block=32,
    profile_duration_s=0.012,
)
TWO_TIER_LOAD = LoadSpec.open_loop(2000)
TWO_TIER_CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.015,
                                   seed=5)


def _clone(**kwargs):
    return DittoCloner(**kwargs).clone(CloneRequest(
        deployment=two_tier_deployment(), load=TWO_TIER_LOAD,
        config=TWO_TIER_CONFIG, budget=FAST_BUDGET, max_tune_iterations=1,
        seed=17))


@pytest.fixture(scope="module")
def serial_plain():
    return _clone(executor="serial")


@pytest.fixture(scope="module")
def serial_telemetry():
    return _clone(executor="serial", telemetry=True)


@pytest.fixture(scope="module")
def process_telemetry():
    return _clone(executor="process", max_workers=2, telemetry=True)


class TestRegistry:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "requests", ("service",))
        counter.inc(2, service="a")
        counter.inc(3, service="b")
        assert counter.value(service="a") == 2
        assert counter.total() == 5

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_label_mismatch_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("service",))
        with pytest.raises(ConfigurationError):
            counter.inc(1, wrong_label="x")
        with pytest.raises(ConfigurationError):
            counter.inc(1)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")
        with pytest.raises(ConfigurationError):
            registry.counter("thing", label_names=("extra",))

    def test_cardinality_cap(self):
        counter = MetricsRegistry().counter("c_total", "", ("id",))
        for i in range(MAX_SERIES_PER_METRIC):
            counter.inc(1, id=i)
        with pytest.raises(ConfigurationError):
            counter.inc(1, id="one-too-many")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value() == 4

    def test_histogram_buckets(self):
        histogram = MetricsRegistry().histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count() == 5
        assert histogram.sum() == pytest.approx(56.05)
        # per-bucket (non-cumulative), +Inf last
        assert histogram.bucket_counts() == [1, 2, 1, 1]

    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.counter("c_total").inc(2)
        a.gauge("g").set(1)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("c_total").inc(3)
        b.gauge("g").set(9)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        # snapshots are JSON-safe
        a.merge(json.loads(json.dumps(b.snapshot())))
        assert a.counter("c_total").value() == 5          # counters add
        assert a.gauge("g").value() == 9                  # gauges overwrite
        assert a.histogram("h", buckets=(1.0,)).count() == 2
        assert a.histogram("h", buckets=(1.0,)).bucket_counts() == [1, 1]

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", ("svc",)).inc(3, svc="a")
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        text = registry.to_prometheus_text()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{svc="a"} 3' in text
        # cumulative histogram buckets with le labels
        assert 'lat_bucket{le="1.0"} 0' in text
        assert 'lat_bucket{le="2.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text


class TestSpans:
    def test_noop_without_session(self):
        assert current_session() is None
        assert span("anything") is _NOOP

    def test_records_into_active_session(self):
        with Telemetry() as session:
            with span("outer", category="test"):
                with span("inner", category="test", items=3):
                    pass
        names = [r.name for r in session.spans.records]
        assert names == ["inner", "outer"]     # closed innermost-first
        inner = session.spans.by_name()["inner"][0]
        assert inner.args == {"items": 3}
        assert inner.row == f"ditto pipeline (pid {os.getpid()})"
        assert inner.clock is None
        assert inner.dur >= 0

    def test_exception_recorded_and_propagated(self):
        with Telemetry() as session:
            with pytest.raises(ValueError, match="boom"):
                with span("failing"):
                    raise ValueError("boom")
        record = session.spans.records[0]
        assert "boom" in record.args["error"]

    def test_set_attaches_args(self):
        with Telemetry() as session:
            with span("stage") as handle:
                handle.set(error_rate=0.25)
        assert session.spans.records[0].args["error_rate"] == 0.25

    def test_session_deactivated_after_exit(self):
        telemetry = Telemetry()
        with telemetry:
            assert current_session() is telemetry
        assert current_session() is None

    def test_reentrant_activation(self):
        telemetry = Telemetry()
        telemetry.activate()
        telemetry.activate()
        telemetry.deactivate()
        assert current_session() is telemetry   # outer scope still open
        telemetry.deactivate()
        assert current_session() is None


def _rows(doc):
    """pid -> row name, from the trace's process_name metadata."""
    return {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"}


class TestChromeTrace:
    def test_round_trip_and_event_shape(self):
        telemetry = Telemetry(label="unit")
        with telemetry:
            with span("stage_a"):
                pass
        run = telemetry.timeline.begin_run("svc (open 10 qps)")
        run.complete("svc", "req", ts=0.001, dur=0.002, queued=0.0)
        doc = json.loads(json.dumps(telemetry.chrome_trace()))
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"label": "unit"}
        for event in events:
            assert event["ph"] in {"X", "M", "i"}
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
        rows = _rows(doc)
        spans_x = [e for e in events if e["ph"] == "X"
                   and rows[e["pid"]].startswith("ditto pipeline")]
        assert [e["name"] for e in spans_x] == ["stage_a"]
        sim = [e for e in events if e["ph"] == "X"
               and rows[e["pid"]] == "simulated time: svc (open 10 qps)"]
        assert [(e["name"], e["ts"], e["dur"]) for e in sim] == [
            ("req", 1000.0, 2000.0)]
        assert sim[0]["args"] == {"queued": 0.0}
        assert len(rows) == 2      # one wall-clock, one sim run

    def test_sim_runs_get_separate_process_groups(self):
        timeline = SimTimeline()
        timeline.begin_run("same").complete("svc", "a", 0.0, 0.001)
        timeline.begin_run("same").complete("svc", "a", 0.0, 0.001)
        doc = chrome_trace(timeline.events)
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(pids) == 2
        assert set(_rows(doc).values()) == {"simulated time: same"}

    def test_every_event_is_named_and_clocks_stay_apart(self, tmp_path):
        """Spans, two sim runs and a flight log in one export: every
        (pid, tid) has its name metadata, the earliest wall-clock event
        sits at 0, and sim events keep their simulated timestamps."""
        path = str(tmp_path / "events.jsonl")
        recorder = FlightRecorder(path)
        recorder.emit("job_submitted", job_id="j-0")
        telemetry = Telemetry()
        with telemetry:
            with span("stage"):
                pass
        recorder.emit("job_state", job_id="j-0",
                      **{"from": "submitted", "to": "published"})
        recorder.close()
        simulated = []
        for label, start in (("first", 0.004), ("second", 0.002)):
            run = telemetry.timeline.begin_run(label)
            run.complete("svc", "req", ts=start, dur=0.001)
            run.complete("node0-nic", "tx", ts=start / 2, dur=0.0005)
            simulated += [(start * 1e6, 0.001 * 1e6),
                          (start / 2 * 1e6, 0.0005 * 1e6)]
        events = (telemetry.events()
                  + read_flight_log(path).trace_events())
        doc = chrome_trace(events)["traceEvents"]
        named_rows = {e["pid"] for e in doc if e["ph"] == "M"
                      and e["name"] == "process_name"}
        named_tracks = {(e["pid"], e["tid"]) for e in doc if e["ph"] == "M"
                        and e["name"] == "thread_name"}
        timed = [e for e in doc if e["ph"] != "M"]
        for event in timed:
            assert event["pid"] in named_rows
            assert (event["pid"], event["tid"]) in named_tracks
        wall = [e for e in timed if e["cat"] != "sim"]
        assert min(e["ts"] for e in wall) == 0
        assert len(wall) == 1 + 2 + 1    # span, 2 instants, 1 slice
        sim = [(e["ts"], e["dur"]) for e in timed if e["cat"] == "sim"]
        assert sorted(sim) == sorted(simulated)
        assert len({e["pid"] for e in timed if e["cat"] == "sim"}) == 2

    def test_timeline_cap_counts_drops(self):
        timeline = SimTimeline(max_events=3)
        run = timeline.begin_run("capped")
        for i in range(5):
            run.complete("svc", f"e{i}", float(i), 0.1)
        assert len(timeline) == 3
        assert timeline.dropped == 2

    def test_write_chrome_trace_equals_in_memory_document(self, tmp_path):
        telemetry = Telemetry(label="written")
        with telemetry:
            with span("stage"):
                pass
        telemetry.timeline.begin_run("run").complete("svc", "req", 0.0,
                                                     0.001)
        path = telemetry.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == json.loads(
                json.dumps(telemetry.chrome_trace()))


class TestWorkerRoundTrip:
    def test_payload_absorb(self):
        worker = Telemetry.for_worker()
        assert worker.timeline is None
        with worker:
            worker.registry.counter("work_total").inc(4)
            with span("tier:w"):
                pass
        parent = Telemetry()
        parent.absorb(worker.payload())
        parent.absorb(None)     # tolerated
        assert parent.registry.counter("work_total").value() == 4
        assert [r.name for r in parent.spans.records] == ["tier:w"]

    def test_absorb_merge_semantics_per_metric_type(self):
        """Counter adds, gauge last-write-wins, histogram bucket-merges —
        including label collisions where parent and workers all wrote
        the same series (the fleet's process-pool shape)."""
        parent = Telemetry()
        parent.registry.counter("jobs_total", "", ("state",)).inc(
            2, state="done")
        parent.registry.gauge("queue_depth").set(7)
        parent.registry.histogram(
            "job_seconds", buckets=(1.0, 2.0)).observe(0.5)

        payloads = []
        for value in (1.5, 5.0):
            worker = Telemetry.for_worker()
            with worker:
                counter = worker.registry.counter("jobs_total", "",
                                                  ("state",))
                counter.inc(1, state="done")    # collides with parent
                counter.inc(1, state="failed")  # new series
                worker.registry.gauge("queue_depth").set(value)
                worker.registry.histogram(
                    "job_seconds", buckets=(1.0, 2.0)).observe(value)
            payloads.append(worker.payload())
        for payload in payloads:
            parent.absorb(payload)

        counter = parent.registry.get("jobs_total")
        assert counter.value(state="done") == 4     # 2 + 1 + 1
        assert counter.value(state="failed") == 2
        # gauges: the last absorbed payload's value sticks
        assert parent.registry.get("queue_depth").value() == 5.0
        histogram = parent.registry.get("job_seconds")
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(0.5 + 1.5 + 5.0)
        # one observation per bucket: 0.5 ≤ 1.0 < 1.5 ≤ 2.0 < 5.0
        assert histogram.bucket_counts() == [1, 1, 1]

    def test_absorb_rejects_histogram_bucket_mismatch(self):
        worker = Telemetry.for_worker()
        with worker:
            worker.registry.histogram("h", buckets=(1.0,)).observe(0.5)
        parent = Telemetry()
        parent.registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            parent.absorb(worker.payload())


class TestReportCli:
    def test_cli_renders_saved_run(self, tmp_path, capsys):
        telemetry = Telemetry(label="cli test")
        with telemetry:
            telemetry.registry.counter(
                "ditto_expcache_hits_total", "", ("cache",)).inc(3, cache="t")
            telemetry.registry.counter(
                "ditto_expcache_misses_total", "", ("cache",)).inc(1,
                                                                   cache="t")
            with span("profiling"):
                pass
        path = tmp_path / "run.json"
        telemetry.save(str(path))
        assert report_main([str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report — cli test" in out
        assert "profiling" in out
        assert "== experiment cache ==" in out
        assert "75.0%" in out       # 3 hits / 4 lookups
        assert "# TYPE ditto_expcache_hits_total counter" in out

    def test_sim_extent_is_the_last_interval_end(self, tmp_path, capsys):
        telemetry = Telemetry()
        telemetry.timeline.begin_run("one").complete("svc", "req",
                                                     ts=0.001, dur=0.009)
        path = telemetry.save(str(tmp_path / "run.json"))
        assert report_main([path]) == 0
        assert "10.00 ms sim time" in capsys.readouterr().out

    def test_cli_refuses_other_formats(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "ditto-telemetry-run/1",
                                    "spans": []}))
        assert report_main([str(path)]) == 2
        assert "'ditto-telemetry-run/1'" in capsys.readouterr().err


class TestPipelineTelemetry:
    """Acceptance: the clone pipeline records into one merged session."""

    def test_output_identical_with_telemetry(self, serial_plain,
                                             serial_telemetry):
        assert (stable_digest(serial_plain.synthetic)
                == stable_digest(serial_telemetry.synthetic))

    def test_output_identical_across_executors(self, serial_plain,
                                               process_telemetry):
        assert (stable_digest(serial_plain.synthetic)
                == stable_digest(process_telemetry.synthetic))

    def test_serial_clone_records_stages(self, serial_telemetry):
        telemetry = serial_telemetry.report.telemetry
        names = set(telemetry.spans.by_name())
        assert {"profiling", "tier_pipeline", "tier:frontend",
                "tier:memcached", "feature_extraction", "generation",
                "run_experiment"} <= names

    def test_cache_stats_are_registry_backed(self, serial_telemetry):
        report = serial_telemetry.report
        registry = report.telemetry.registry
        misses = registry.get("ditto_expcache_misses_total")
        assert misses is not None
        assert report.cache_stats.misses == int(misses.total())

    def test_process_clone_merges_worker_spans(self, process_telemetry):
        telemetry = process_telemetry.report.telemetry
        doc = telemetry.chrome_trace()
        rows = _rows(doc)
        span_rows = {rows[e["pid"]] for e in doc["traceEvents"]
                     if e.get("ph") == "X" and e["cat"] != "sim"}
        main_row = f"ditto pipeline (pid {os.getpid()})"
        assert main_row in span_rows
        assert any(row != main_row for row in span_rows), \
            "no worker-process spans in the merged trace"
        tier_names = {e["name"] for e in doc["traceEvents"]
                      if e.get("ph") == "X"
                      and e["name"].startswith("tier:")}
        assert tier_names == {"tier:frontend", "tier:memcached"}

    def test_profiling_records_sim_timeline(self, process_telemetry):
        telemetry = process_telemetry.report.telemetry
        assert telemetry.timeline.events, "no simulated-time runs recorded"
        all_tracks = {event.track for event in telemetry.timeline.events}
        assert {"frontend", "memcached"} <= all_tracks

    def test_report_fields_recorded_as_metrics(self, process_telemetry):
        report = process_telemetry.report
        registry = report.telemetry.registry
        clones = registry.get("ditto_clones_total")
        assert clones.value(executor="process") == 1
        tier_seconds = registry.get("ditto_pipeline_tier_seconds")
        for tier, seconds in report.tier_seconds.items():
            assert tier_seconds.value(tier=tier) == pytest.approx(seconds)

    def test_telemetry_disabled_records_nothing(self, serial_plain):
        assert serial_plain.report.telemetry is None
