"""Fleet observability: flight recorder, status endpoint, drift, top."""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro import (
    CloneRequest,
    Deployment,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
)
from repro.fleet import (
    CloneJobSpec,
    FleetClient,
    FleetScheduler,
    JobState,
    JobStore,
)
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.job import RUNNING_STATES
from repro.fleet.obs import (
    FleetStatusServer,
    FlightRecorder,
    analyze_drift,
    load_fidelity_history,
    parse_serve_address,
    read_flight_log,
    render_drift_report,
    render_top,
)
from repro.profiling import ProfilingBudget
from repro.telemetry import Telemetry, TraceEvent
from repro.telemetry.chrometrace import chrome_trace
from repro.util.errors import ConfigurationError

FAST_BUDGET = ProfilingBudget(
    sampled_requests=6, max_accesses_per_spec=384,
    max_istream_per_block=1024, branch_outcomes_per_site=96,
    max_sites_per_population=6, dep_samples_per_block=32,
    profile_duration_s=0.012,
)
LOAD = LoadSpec.open_loop(2000)
CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.015, seed=5)


def _request(**overrides):
    fields = dict(
        deployment=Deployment.single(build_memcached()),
        load=LOAD, config=CONFIG, seed=17, budget=FAST_BUDGET,
        fine_tune_tiers=True, max_tune_iterations=1,
    )
    fields.update(overrides)
    return CloneRequest(**fields)


def _http_get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_emit_read_round_trip(self, tmp_path):
        path = str(tmp_path / "flight" / "events.jsonl")
        recorder = FlightRecorder(path)
        recorder.emit("job_submitted", job_id="j-0", digest="abc")
        recorder.emit("job_state", job_id="j-0",
                      **{"from": "submitted", "to": "tuning",
                         "reason": "tuning"})
        recorder.close()
        log = read_flight_log(path)
        assert log.skipped == 0
        assert [e.kind for e in log.events] == ["job_submitted",
                                                "job_state"]
        assert log.events[0].data == {"digest": "abc"}
        assert log.events[0].pid == os.getpid()
        assert log.events[0].seq < log.events[1].seq

    def test_corrupt_line_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = FlightRecorder(path)
        recorder.emit("a", job_id="j-0")
        recorder.emit("b", job_id="j-0")
        recorder.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        # flip a payload byte in the first line; signature must catch it
        tampered = lines[0].replace('"j-0"', '"j-1"')
        assert tampered != lines[0]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tampered + "\n" + lines[1] + "\n")
            handle.write("not json at all\n")
        log = read_flight_log(path)
        assert log.skipped == 2
        assert [e.kind for e in log.events] == ["b"]

    def test_missing_log_reads_empty(self, tmp_path):
        log = read_flight_log(str(tmp_path / "never-written.jsonl"))
        assert log.events == [] and log.skipped == 0

    def test_interleaved_writers_merge_in_order(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        one, two = FlightRecorder(path), FlightRecorder(path)
        one.emit("a", job_id="j-0")
        two.emit("b", job_id="j-0")
        one.emit("c", job_id="j-0")
        one.close(), two.close()
        log = read_flight_log(path)
        assert len(log.events) == 3
        assert log.events == sorted(log.events, key=lambda e: e.order)
        assert log.lifecycle("j-0") == []   # no state events recorded

    def test_chrome_events_state_slices_and_instants(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = FlightRecorder(path)
        recorder.emit("job_submitted", job_id="j-0")
        recorder.emit("job_state", job_id="j-0",
                      **{"from": "submitted", "to": "tuning",
                         "reason": ""})
        recorder.emit("job_state", job_id="j-0",
                      **{"from": "tuning", "to": "published",
                         "reason": ""})
        recorder.close()
        events = chrome_trace(
            read_flight_log(path).trace_events())["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert [s["name"] for s in slices] == ["submitted", "tuning"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 3
        assert all(e["s"] == "t" for e in instants)
        assert instants[1]["args"]["to"] == "tuning"
        assert {"job_id", "seq", "writer_pid"} <= set(instants[0]["args"])
        assert any(e["ph"] == "M" and e["args"]["name"] ==
                   "fleet flight recorder" for e in events)

    def test_chrome_trace_rebases_flight_with_spans(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = FlightRecorder(path)
        event = recorder.emit("job_submitted", job_id="j-0")
        recorder.close()
        # a span that started 1s before the flight event
        span = TraceEvent("profiling", "pipeline", "X",
                          int(event.ts * 1e6) - 1_000_000, 500.0,
                          "ditto pipeline (pid 123)", "MainThread")
        doc = chrome_trace(
            [span] + read_flight_log(path).trace_events())
        timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert min(e["ts"] for e in timed) == 0      # span is the base
        flight_instant = next(e for e in timed if e["ph"] == "i")
        assert flight_instant["ts"] == pytest.approx(1_000_000, abs=5e3)


class TestStoreFlightWiring:
    def test_off_by_default_and_auto_join(self, tmp_path):
        root = str(tmp_path / "store")
        assert JobStore(root).flight is None
        assert not os.path.isdir(os.path.join(root, "flight"))
        # enabling once flips every later default-constructed handle
        assert JobStore(root, flight=True).flight is not None
        assert JobStore(root).flight is not None
        assert JobStore(root, flight=False).flight is None


# --------------------------------------------------------------------- #
# status endpoint
# --------------------------------------------------------------------- #
class TestParseServeAddress:
    def test_forms(self):
        assert parse_serve_address(None) is None
        assert parse_serve_address(False) is None
        assert parse_serve_address(True) == ("127.0.0.1", 0)
        assert parse_serve_address(9090) == ("127.0.0.1", 9090)
        assert parse_serve_address(":9090") == ("127.0.0.1", 9090)
        assert parse_serve_address("0.0.0.0:80") == ("0.0.0.0", 80)
        assert parse_serve_address("8080") == ("127.0.0.1", 8080)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_serve_address("nonsense:port")
        with pytest.raises(ConfigurationError):
            parse_serve_address(3.14)


class TestStatusServer:
    def test_routes_over_http(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request()))
        server = FleetStatusServer(store, address=True)
        try:
            status, metrics = _http_get(server.url + "/metrics")
            assert status == 200
            assert "ditto_fleet_jobs_submitted_total 1" in metrics
            status, body = _http_get(server.url + "/jobs")
            jobs = json.loads(body)
            assert [j["job_id"] for j in jobs] == [record.job_id]
            assert jobs[0]["state"] == "submitted"
            status, body = _http_get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["queue_depth"] == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _http_get(server.url + "/nope")
            assert excinfo.value.code == 404
        finally:
            server.close()

    def test_merges_session_registry_without_double_count(self, tmp_path):
        store = JobStore(str(tmp_path))
        session = Telemetry(label="t")
        session.registry.counter("extra_total").inc(3)
        server = FleetStatusServer(
            store, registries=(session.registry, store.registry))
        try:
            store.submit(CloneJobSpec(request=_request()))
            text = server.metrics_text()
            assert "extra_total 3" in text
            # the store registry appears once even though it was passed
            # explicitly AND implied — submit counted 1, not 2
            assert "ditto_fleet_jobs_submitted_total 1" in text
        finally:
            server.close()

    def test_scheduler_lifecycle(self, tmp_path):
        scheduler = FleetScheduler(str(tmp_path), serve_metrics=True)
        assert scheduler.status_server is not None
        url = scheduler.status_server.url
        assert _http_get(url + "/healthz")[0] == 200
        scheduler.close()
        assert scheduler.status_server is None
        scheduler.close()   # idempotent
        # disabled by default
        assert FleetScheduler(str(tmp_path)).status_server is None


# --------------------------------------------------------------------- #
# drift analysis
# --------------------------------------------------------------------- #
def _entry(job_id, error, relative=0.1, absolute=0.0, metric="ipc"):
    return {
        "job_id": job_id, "label": "twotier", "platform": "A",
        "checks": [{
            "metric": metric, "service": "svc",
            "original": 1.0, "clone": 1.0 + error, "error": error,
            "relative_tolerance": relative,
            "absolute_tolerance": absolute,
            "passed": error <= relative,
        }],
    }


class TestDriftAnalysis:
    def test_drifting_when_latest_fraction_past_warn(self):
        report = analyze_drift(
            {"d0": [_entry("j0", 0.02), _entry("j1", 0.09)]})
        flag = report.series[0]
        assert flag.verdict == "DRIFTING"       # 0.09 / 0.1 = 90%
        assert flag.latest_fraction == pytest.approx(0.9)
        assert report.drifting() and report.flagged()

    def test_watch_on_monotonic_widening(self):
        entries = [_entry(f"j{i}", error)
                   for i, error in enumerate((0.04, 0.05, 0.06))]
        report = analyze_drift({"d0": entries})
        flag = report.series[0]
        assert flag.verdict == "WATCH"
        assert flag.widening
        assert flag.jobs == ("j0", "j1", "j2")

    def test_stable_series_is_ok(self):
        entries = [_entry(f"j{i}", 0.02) for i in range(4)]
        report = analyze_drift({"d0": entries})
        assert report.series[0].verdict == "OK"
        assert not report.flagged()

    def test_absolute_floor_forgives_small_deltas(self):
        # relative error is 50% of a tiny value, but the absolute slack
        # covers the delta — tolerance fraction uses the forgiving bound
        entry = {
            "job_id": "j0", "label": "", "platform": "A",
            "checks": [{
                "metric": "error_rate", "service": "",
                "original": 0.002, "clone": 0.003, "error": 0.5,
                "relative_tolerance": 0.0, "absolute_tolerance": 0.02,
                "passed": True,
            }],
        }
        report = analyze_drift({"d0": [entry]})
        assert report.series[0].latest_fraction == pytest.approx(0.05)
        assert report.series[0].verdict == "OK"

    def test_history_loader_skips_torn_lines(self, tmp_path):
        path = tmp_path / "abc123.jsonl"
        good = json.dumps(_entry("j0", 0.01))
        path.write_text(good + "\n" + '{"job_id": "j1", "chec\n',
                        encoding="utf-8")
        histories = load_fidelity_history(str(tmp_path))
        assert list(histories) == ["abc123"]
        assert [e["job_id"] for e in histories["abc123"]] == ["j0"]

    def test_render_mentions_verdicts(self):
        report = analyze_drift(
            {"d0": [_entry("j0", 0.02), _entry("j1", 0.09)]})
        text = render_drift_report(report, store_root="/x")
        assert "DRIFTING" in text
        assert "1 series tracked; 1 flagged (1 drifting)" in text
        empty = render_drift_report(analyze_drift({}))
        assert "no gated fidelity history" in empty


# --------------------------------------------------------------------- #
# end-to-end: process-pool fleet with every observer on
# --------------------------------------------------------------------- #
class TestFleetObservabilityEndToEnd:
    @pytest.fixture(scope="class")
    def observed(self, tmp_path_factory):
        """Two identical gated jobs through a process pool, with the
        flight recorder, telemetry session and status endpoint all on."""
        root = str(tmp_path_factory.mktemp("observed"))
        store = JobStore(root, flight=True)
        client = FleetClient(store)
        first = client.submit(_request(validate=True), name="first")
        second = client.submit(_request(validate=True), name="second")
        session = Telemetry(label="fleet-obs")
        scheduler = FleetScheduler(store, executor="process",
                                   max_workers=2, telemetry=session,
                                   serve_metrics=True)
        try:
            outcomes = scheduler.run_until_idle()
            status, metrics_text = _http_get(
                scheduler.status_server.url + "/metrics")
            _, jobs_body = _http_get(scheduler.status_server.url
                                     + "/jobs")
        finally:
            scheduler.close()
        return (store, client, (first, second), outcomes, session,
                metrics_text, json.loads(jobs_body))

    def test_jobs_published(self, observed):
        _, _, _, outcomes, _, _, _ = observed
        assert sorted(o.state for o in outcomes) \
            == [JobState.PUBLISHED] * 2

    def test_flight_log_written_across_processes(self, observed):
        store, _, (first, second), _, _, _, _ = observed
        log = read_flight_log(store.flight_path)
        assert log.skipped == 0
        assert set(log.job_ids()) == {first.job_id, second.job_id}
        # submission was recorded by this process, execution by pool
        # workers — more than one writer pid appears in the log
        assert len({e.pid for e in log.events}) >= 2
        for job_id in (first.job_id, second.job_id):
            lifecycle = log.lifecycle(job_id)
            assert lifecycle[0] == "submitted"
            assert lifecycle[-1] == "published"
        assert len(log.filter(kind="result_published")) == 2

    def test_histograms_absorbed_across_processes(self, observed):
        # both pool workers observed the same series — the absorb path
        # merged colliding histogram labels instead of dropping them
        _, _, _, _, session, _, _ = observed
        histogram = session.registry.get(
            "ditto_fleet_job_duration_seconds")
        assert histogram is not None
        assert histogram.count(state="published") == 2
        assert histogram.sum(state="published") > 0

    def test_metrics_endpoint_shows_fleet_state(self, observed):
        _, _, _, _, _, metrics_text, jobs = observed
        assert ("ditto_fleet_jobs_submitted_total 2"
                in metrics_text)
        assert ('ditto_fleet_job_duration_seconds_count'
                '{state="published"} 2') in metrics_text
        assert 'ditto_fidelity_error{metric="ipc"' in metrics_text
        assert sorted(j["state"] for j in jobs) == ["published"] * 2

    def test_drift_history_keyed_by_spec_digest(self, observed):
        store, client, (first, second), _, _, _, _ = observed
        assert first.spec_digest == second.spec_digest
        histories = store.fidelity_history()
        assert list(histories) == [first.spec_digest[:32]]
        entries = histories[first.spec_digest[:32]]
        assert sorted(e["job_id"] for e in entries) \
            == sorted([first.job_id, second.job_id])
        report = client.drift_report()
        assert report.series and not report.drifting()
        # identical specs, identical clones: zero drift between jobs
        for flag in report.series:
            assert flag.fractions[0] == flag.fractions[-1]

    def test_top_renders_the_fleet(self, observed):
        store, _, _, _, _, _, _ = observed
        frame = render_top(store, read_flight_log(store.flight_path))
        assert "published=2" in frame
        assert "flight log:" in frame
        assert "job_state=" in frame


class TestTopStates:
    def test_every_running_state_is_on_the_per_state_line(self, tmp_path):
        store = JobStore(str(tmp_path))
        for state in RUNNING_STATES:
            record = store.submit(CloneJobSpec(request=_request()))
            record.state = state
            store.save(record)
        per_state = render_top(store).splitlines()[2]
        for state in RUNNING_STATES:
            assert f"{state.value}=1" in per_state


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestObservabilityCli:
    def test_run_serve_telemetry_then_inspect(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        run_json = str(tmp_path / "run.json")
        trace_json = str(tmp_path / "trace.json")
        assert fleet_main(["submit", "--store", store, "--workload",
                           "memcached", "--fast", "--validate",
                           "--flight"]) == 0
        job_id = capsys.readouterr().out.strip()

        assert fleet_main(["run", "--store", store, "--executor",
                           "serial", "--telemetry", "--serve",
                           "--save", run_json]) == 0
        err = capsys.readouterr().err
        assert "serving fleet status on http://127.0.0.1:" in err
        assert "telemetry: shared-cache hits=" in err
        assert "telemetry report — fleet" in err
        assert os.path.exists(run_json)

        assert fleet_main(["top", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ditto fleet top" in out
        assert "published=1" in out

        assert fleet_main(["drift", "--store", store, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "series tracked" in out

        assert fleet_main(["drift", "--store", store, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "ditto-fleet-drift/1"
        assert doc["series"]

        assert fleet_main(["trace", "--store", store, "--out",
                           trace_json, "--run", run_json]) == 0
        trace = json.load(open(trace_json))
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "i", "X"} <= phases

        assert fleet_main(["show", "--store", store, job_id]) == 0
        out = capsys.readouterr().out
        assert "fidelity: PASS" in out
        assert "fidelity gate" in out       # the per-metric table

    def test_trace_without_flight_log_fails_cleanly(self, tmp_path,
                                                    capsys):
        store = str(tmp_path / "store")
        JobStore(store)     # valid store, recorder never enabled
        assert fleet_main(["trace", "--store", store, "--out",
                           str(tmp_path / "t.json")]) == 1
        assert "no flight events" in capsys.readouterr().err

    def test_report_cli_reads_fleet_artifacts(self, tmp_path, capsys):
        from repro.telemetry.report import main as report_main
        store = str(tmp_path / "store")
        assert fleet_main(["submit", "--store", store, "--workload",
                           "memcached", "--fast", "--validate",
                           "--flight"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert fleet_main(["run", "--store", store,
                           "--executor", "serial"]) == 0
        capsys.readouterr()

        assert report_main([store]) == 0
        out = capsys.readouterr().out
        assert f"== job {job_id} (published) ==" in out
        assert "== flight log ==" in out
        assert "fidelity gate" in out

        artifact = os.path.join(store, "results",
                                f"{job_id}.fidelity.json")
        assert report_main([artifact]) == 0
        out = capsys.readouterr().out
        assert f"fleet fidelity artifact — job {job_id}" in out


# --------------------------------------------------------------------- #
# determinism: observability must not move a single output bit
# --------------------------------------------------------------------- #
def test_observability_leaves_digests_unchanged(tmp_path):
    plain_store = JobStore(str(tmp_path / "plain"))
    plain = FleetClient(plain_store)
    plain_record = plain.submit(_request(validate=True))
    FleetScheduler(plain_store, executor="serial").run_until_idle()

    observed_store = JobStore(str(tmp_path / "observed"), flight=True)
    observed = FleetClient(observed_store)
    observed_record = observed.submit(_request(validate=True))
    scheduler = FleetScheduler(observed_store, executor="serial",
                               telemetry=True, serve_metrics=True)
    try:
        scheduler.run_until_idle()
    finally:
        scheduler.close()

    plain_final = plain.get(plain_record.job_id)
    observed_final = observed.get(observed_record.job_id)
    assert plain_final.state is JobState.PUBLISHED
    assert plain_final.result_digest == observed_final.result_digest
    plain_bundle = json.load(
        open(plain_store.bundle_path(plain_record.job_id)))
    observed_bundle = json.load(
        open(observed_store.bundle_path(observed_record.job_id)))
    assert plain_bundle == observed_bundle
