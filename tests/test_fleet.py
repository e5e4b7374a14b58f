"""The fleet control plane: store, state machine, scheduler, client, CLI."""

import copyreg
import functools
import io
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    FaultPlan,
    LoadSpec,
    PLATFORM_A,
    PLATFORM_B,
    build_memcached,
)
from repro.faults import DiskSlowdownFault
from repro.fleet import (
    CloneJobSpec,
    FleetClient,
    FleetScheduler,
    JobState,
    JobStore,
    execute_job,
)
from repro.fleet import scheduler as scheduler_module
from repro.fleet import worker as worker_module
from repro.fleet.__main__ import main as fleet_main
from repro.migrate import MigrationRequest
from repro.migrate.__main__ import main as migrate_main
from repro.profiling import ProfilingBudget
from repro.runtime import ResilienceConfig
from repro.runtime import expcache as expcache_module
from repro.telemetry import Telemetry
from repro.util.errors import (
    ArtifactIntegrityError,
    ConfigurationError,
    JobStateError,
)
from repro.util.spec_hash import stable_digest
from repro.validation import FidelityGate, RemediationPolicy
from repro.validation import gate as gate_module

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


def _states(record):
    return [edge.to_state for edge in record.history]


class TestJobStateMachine:
    def test_happy_path(self):
        from repro.fleet.job import CloneJobRecord
        spec = CloneJobSpec(request=_request())
        record = CloneJobRecord(job_id="x-0", spec=spec,
                                spec_digest=spec.digest())
        for state in (JobState.PROFILING, JobState.TUNING,
                      JobState.VALIDATING, JobState.PUBLISHED,
                      JobState.RETIRED):
            record.transition(state)
        assert record.state is JobState.RETIRED
        assert record.terminal

    def test_illegal_transitions_rejected(self):
        from repro.fleet.job import CloneJobRecord
        spec = CloneJobSpec(request=_request())
        record = CloneJobRecord(job_id="x-0", spec=spec,
                                spec_digest=spec.digest())
        with pytest.raises(JobStateError):
            record.transition(JobState.PUBLISHED)  # submitted → published
        record.transition(JobState.PROFILING)
        with pytest.raises(JobStateError):
            record.transition(JobState.VALIDATING)
        record.transition(JobState.TUNING)
        record.transition(JobState.TUNING)  # remediation self-loop is legal
        record.transition(JobState.PUBLISHED)
        with pytest.raises(JobStateError):
            record.transition(JobState.FAILED)  # published is final-ish
        record.transition(JobState.RETIRED)
        with pytest.raises(JobStateError):
            record.transition(JobState.SUBMITTED)

    def test_spec_digest_ignores_scheduling_metadata(self):
        request = _request()
        a = CloneJobSpec(request=request, name="a", priority=5)
        b = CloneJobSpec(request=request, name="b", priority=-1)
        assert a.digest() == b.digest()

    def test_spec_validated(self):
        with pytest.raises(ConfigurationError):
            CloneJobSpec(request="clone memcached please")
        with pytest.raises(ConfigurationError):
            CloneJobSpec(request=_request(), priority=True)


class TestJobStore:
    def test_submit_allocates_unique_ids(self, tmp_path):
        store = JobStore(str(tmp_path))
        spec = CloneJobSpec(request=_request())
        a = store.submit(spec)
        b = store.submit(spec)
        assert a.job_id != b.job_id
        assert a.spec_digest == b.spec_digest
        assert a.job_id.startswith(a.spec_digest[:12])
        assert {r.job_id for r in store.list()} == {a.job_id, b.job_id}

    def test_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request(), name="rt"))
        loaded = store.get(record.job_id)
        assert loaded.spec.name == "rt"
        assert loaded.state is JobState.SUBMITTED
        assert loaded.spec.request.digest() == record.spec_digest

    def test_corrupt_record_skipped_not_trusted(self, tmp_path):
        store = JobStore(str(tmp_path))
        keep = store.submit(CloneJobSpec(request=_request()))
        lose = store.submit(CloneJobSpec(request=_request(seed=23)))
        path = store.record_path(lose.job_id)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert [r.job_id for r in store.list()] == [keep.job_id]
        with pytest.raises((ArtifactIntegrityError, FileNotFoundError)):
            store.get(lose.job_id)

    def test_lease_exclusivity(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request()))
        assert store.claim_lease(record.job_id)
        assert not store.claim_lease(record.job_id)
        assert store.lease_pid(record.job_id) == os.getpid()
        store.release_lease(record.job_id)
        assert store.claim_lease(record.job_id)

    def test_recover_requeues_dead_owner(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request()))
        store.transition(record, JobState.PROFILING)
        # A lease held by a dead pid: the worker crashed.
        store.claim_lease(record.job_id, pid=2 ** 22 + 12345)
        assert store.recover() == [record.job_id]
        requeued = store.get(record.job_id)
        assert requeued.state is JobState.SUBMITTED
        assert requeued.history[-1].reason == "recovered"
        assert not os.path.exists(store.lease_path(record.job_id))

    def test_recover_leaves_live_owner_alone(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request()))
        store.transition(record, JobState.PROFILING)
        store.claim_lease(record.job_id)  # this very process: alive
        assert store.recover() == []
        assert store.get(record.job_id).state is JobState.PROFILING


class TestLegacyProfile:
    def test_older_profile_layout_is_reprofiled(self, tmp_path):
        # A profile stored by an older layout carries the raw sample
        # list instead of the per-iform table. Reading it must be a
        # miss (the job re-profiles and replaces it), never a crash
        # inside feature extraction.
        from repro.fleet.store import PROFILE_SCHEMA
        from repro.profiling.collector import PROFILE_VERSION
        from repro.profiling import profile_deployment
        from repro.validation import integrity

        client = FleetClient(str(tmp_path))
        record = client.submit(_request(), name="legacy")
        legacy = profile_deployment(
            Deployment.single(build_memcached()), LOAD, CONFIG,
            budget=FAST_BUDGET, seed=17)
        for artifacts in legacy.services.values():
            del artifacts.instruction_table
            artifacts.instruction_stream = [("ADD_r64_r64", 0.0)]
        path = client.store.profile_path(record.spec_digest)
        integrity.save_object(path, legacy, schema=PROFILE_SCHEMA,
                              version=PROFILE_VERSION - 1)
        assert client.store.load_profile(record.spec_digest) is None
        outcomes = FleetScheduler(client.store,
                                  executor="serial").run_until_idle()
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        assert _states(client.get(record.job_id))[0] is JobState.PROFILING
        stored = client.store.load_profile(record.spec_digest)
        assert stored.artifacts("memcached").instruction_table


class _DeterministicLoadPickler(pickle.Pickler):
    """Pickles a record the way the store wrote it while ``LoadSpec``
    had a ``deterministic`` field (always ``False`` in stored specs)."""

    def reducer_override(self, obj):
        if type(obj) is LoadSpec:
            state = dict(vars(obj), deterministic=False)
            return copyreg.__newobj__, (LoadSpec,), state
        return NotImplemented


class TestLegacyLoadSpec:
    def test_record_with_deterministic_field_loads(self, tmp_path):
        from repro.fleet.store import RECORD_SCHEMA, SCHEMA_VERSION
        from repro.util.spec_hash import stable_digest
        from repro.validation import integrity

        client = FleetClient(str(tmp_path))
        record = client.submit(_request(), name="legacy-load")
        buffer = io.BytesIO()
        _DeterministicLoadPickler(buffer, protocol=4).dump(record)
        assert b"deterministic" in buffer.getvalue()
        integrity.write_envelope(
            client.store.record_path(record.job_id), buffer.getvalue(),
            schema=RECORD_SCHEMA, version=SCHEMA_VERSION)

        loaded = client.get(record.job_id)
        load = loaded.spec.request.load
        assert vars(load)["deterministic"] is False
        assert load == LOAD
        assert stable_digest(load) == stable_digest(LOAD)
        assert loaded.spec.digest() == record.spec.digest()


class _ExecutorStepPickler(pickle.Pickler):
    """Pickles a record the way the store wrote it while
    ``RemediationPolicy`` had a ``degrade_executor`` field."""

    def reducer_override(self, obj):
        if type(obj) is RemediationPolicy:
            state = dict(vars(obj), degrade_executor=True)
            return copyreg.__newobj__, (RemediationPolicy,), state
        return NotImplemented


class TestLegacyRemediationPolicy:
    POLICY = RemediationPolicy(max_attempts=1, widen_tune_factor=2.0)

    @pytest.mark.parametrize("request_kind", ["clone", "migration"])
    def test_record_with_degrade_executor_loads(self, tmp_path,
                                                request_kind):
        from repro.fleet.store import RECORD_SCHEMA, SCHEMA_VERSION
        from repro.util.spec_hash import stable_digest
        from repro.validation import integrity

        if request_kind == "clone":
            request = _request(remediation=self.POLICY)
        else:
            request = MigrationRequest(
                bundle_path=str(tmp_path / "bundle.json"),
                destination=PLATFORM_B, remediation=self.POLICY)
        client = FleetClient(str(tmp_path / "store"))
        record = client.submit(request, name="legacy-policy")
        buffer = io.BytesIO()
        _ExecutorStepPickler(buffer, protocol=4).dump(record)
        assert b"degrade_executor" in buffer.getvalue()
        integrity.write_envelope(
            client.store.record_path(record.job_id), buffer.getvalue(),
            schema=RECORD_SCHEMA, version=SCHEMA_VERSION)

        loaded = client.get(record.job_id)
        policy = loaded.spec.request.remediation
        assert vars(policy)["degrade_executor"] is True
        assert policy == self.POLICY
        assert stable_digest(policy) == stable_digest(self.POLICY)
        assert loaded.spec.digest() == record.spec.digest()


class _RequestFaultsPickler(pickle.Pickler):
    """Pickles a record the way the store wrote it while
    ``CloneRequest`` had ``fault_plan``/``resilience`` fields: set on
    the request, not on its config."""

    def reducer_override(self, obj):
        if type(obj) is CloneRequest:
            config = obj.config
            state = dict(vars(obj), fault_plan=config.fault_plan,
                         resilience=config.resilience,
                         config=replace(config, fault_plan=None,
                                        resilience=None))
            return copyreg.__newobj__, (CloneRequest,), state
        return NotImplemented


class TestLegacyRequestFaults:
    PLAN = FaultPlan((DiskSlowdownFault(factor=4.0),))

    @pytest.mark.parametrize("faults", ["none", "fault_plan", "both"])
    def test_record_with_request_faults_loads(self, tmp_path, faults):
        from repro.fleet.store import RECORD_SCHEMA, SCHEMA_VERSION
        from repro.validation import integrity

        config = CONFIG
        if faults != "none":
            config = replace(config, fault_plan=self.PLAN)
        if faults == "both":
            config = replace(config, resilience=ResilienceConfig())
        client = FleetClient(str(tmp_path))
        record = client.submit(_request(config=config),
                               name="legacy-faults")
        buffer = io.BytesIO()
        _RequestFaultsPickler(buffer, protocol=4).dump(record)
        assert b"fault_plan" in buffer.getvalue()
        integrity.write_envelope(
            client.store.record_path(record.job_id), buffer.getvalue(),
            schema=RECORD_SCHEMA, version=SCHEMA_VERSION)

        loaded = client.get(record.job_id).spec.request
        assert "fault_plan" not in vars(loaded)
        assert "resilience" not in vars(loaded)
        assert loaded.config == config
        assert loaded.digest() == record.spec.digest()


class TestFleetMatchesOneShot:
    def test_published_digest_equals_one_shot_clone(self, tmp_path):
        # Every option is on the request, so a fleet job and a one-shot
        # clone of the same request are the same experiment.
        request = _request(
            seed=23, max_tune_iterations=2, fine_tune_tiers=False,
            budget=replace(FAST_BUDGET, sampled_requests=5))
        client = FleetClient(str(tmp_path))
        record = client.submit(request, name="one-shot")
        outcomes = client.run_until_idle(executor="serial")
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        result = DittoCloner(executor="serial").clone(request)
        tuned = {name: tuning.knobs
                 for name, tuning in result.report.tuning.items()}
        assert outcomes[0].result_digest == stable_digest(
            {"synthetic": result.synthetic, "tuned_knobs": tuned})
        assert client.get(record.job_id).result_digest == \
            outcomes[0].result_digest


class TestFleetEndToEnd:
    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        """One store with two identical-spec jobs run serially."""
        root = str(tmp_path_factory.mktemp("fleet"))
        client = FleetClient(root)
        first = client.submit(_request(), name="first")
        second = client.submit(_request(), name="second")
        session = Telemetry(label="fleet-test")
        scheduler = FleetScheduler(client.store, executor="serial",
                                   telemetry=session)
        outcomes = scheduler.run_until_idle()
        return client, first, second, outcomes, session

    def test_jobs_publish(self, published):
        client, first, second, outcomes, _ = published
        assert [o.state for o in outcomes] == [JobState.PUBLISHED] * 2
        for record in (client.get(first.job_id), client.get(second.job_id)):
            assert record.state is JobState.PUBLISHED
            assert record.result_digest

    def test_lifecycle_recorded(self, published):
        client, first, second, _, _ = published
        states = _states(client.get(first.job_id))
        assert states == [JobState.PROFILING, JobState.TUNING,
                          JobState.PUBLISHED]
        # The second job reused the stored profile: no profiling phase.
        assert _states(client.get(second.job_id)) == [
            JobState.TUNING, JobState.PUBLISHED]

    def test_identical_specs_identical_results(self, published):
        client, first, second, _, _ = published
        a = client.get(first.job_id)
        b = client.get(second.job_id)
        assert a.result_digest == b.result_digest
        assert (client.result(a.job_id).synthetic.services.keys()
                == client.result(b.job_id).synthetic.services.keys())

    def test_shared_cache_and_profile_reuse_observable(self, published):
        client, _, _, _, session = published

        def total(name):
            metric = session.registry.get(name)
            return metric.total() if metric is not None else 0

        assert total("ditto_fleet_profile_reuse_total") >= 1
        # The second job's tuning measurements come from the first
        # job's shared-cache entries.
        assert total("ditto_fleet_shared_cache_stores_total") >= 1
        assert total("ditto_fleet_shared_cache_hits_total") >= 1
        # Terminal-state accounting lives on the store's registry.
        completed = client.store.registry.get(
            "ditto_fleet_jobs_completed_total")
        assert completed is not None and completed.total() == 2

    def test_result_artifacts_on_disk(self, published):
        client, first, _, _, _ = published
        store = client.store
        assert os.path.exists(store.result_path(first.job_id))
        bundle = json.load(open(store.bundle_path(first.job_id)))
        assert bundle["entry_service"] == "memcached"
        result = client.result(first.job_id)
        assert result.result_digest == client.get(first.job_id).result_digest
        assert result.executor == "serial"
        assert "memcached" in result.tuning_iterations

    def test_retire_published(self, published):
        client, first, _, _, _ = published
        client.retire(first.job_id)
        assert client.get(first.job_id).state is JobState.RETIRED
        with pytest.raises(JobStateError):
            client.retire(first.job_id)


class TestValidationAndFailure:
    def test_gated_job_writes_fidelity_artifact(self, tmp_path):
        client = FleetClient(str(tmp_path))
        record = client.submit(_request(validate=True))
        outcomes = client.run_until_idle(executor="serial")
        assert outcomes[0].state is JobState.PUBLISHED
        assert JobState.VALIDATING in _states(client.get(record.job_id))
        document = json.load(
            open(client.store.fidelity_path(record.job_id)))
        assert document["format"] == "ditto-fleet-fidelity/1"
        assert document["report"]["passed"] is True
        assert client.result(record.job_id).fidelity["passed"] is True

    def test_duplicate_gated_job_runs_no_gate_simulation(
            self, tmp_path, monkeypatch):
        # The fleet benchmark's duplicate job: a gated memcached clone
        # submitted twice. The second finds its profile in the store
        # and its tuning runs and both gate replays in the shared cache.
        simulated = []

        def counting(module):
            real = module.run_experiment

            def run(deployment, load, config):
                simulated.append(module.__name__)
                return real(deployment, load, config)
            monkeypatch.setattr(module, "run_experiment", run)

        counting(expcache_module)
        counting(gate_module)
        client = FleetClient(str(tmp_path))
        first = client.submit(_request(validate=True), name="first")
        client.run_until_idle(executor="serial")
        # tuning ran one measurement, the gate two replays, all cached
        assert simulated == ["repro.runtime.expcache"] * 3
        simulated.clear()
        duplicate = client.submit(_request(validate=True), name="dup")
        outcomes = client.run_until_idle(executor="serial")
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        assert simulated == []
        assert (client.get(duplicate.job_id).result_digest
                == client.get(first.job_id).result_digest)
        assert (client.result(duplicate.job_id).fidelity
                == client.result(first.job_id).fidelity)

    def test_unsatisfiable_gate_fails_the_job(self, tmp_path):
        impossible = FidelityGate({"ipc": 1e-12})
        client = FleetClient(str(tmp_path))
        record = client.submit(_request(
            validate=impossible,
            remediation=RemediationPolicy(max_attempts=1)))
        outcomes = client.run_until_idle(executor="serial")
        assert outcomes[0].state is JobState.FAILED
        final = client.get(record.job_id)
        assert final.state is JobState.FAILED
        assert "FidelityGateError" in final.error
        # The remediation ladder shows up as validating → tuning edges.
        states = _states(final)
        assert states.count(JobState.VALIDATING) >= 2
        assert final.attempts >= 1
        # And a failed job can be resubmitted.
        client.store.transition(final, JobState.SUBMITTED,
                                reason="resubmitted")
        assert client.get(record.job_id).state is JobState.SUBMITTED


class TestCancellation:
    def test_cancel_before_start(self, tmp_path):
        client = FleetClient(str(tmp_path))
        record = client.submit(_request())
        cancelled = client.cancel(record.job_id)
        assert cancelled.state is JobState.CANCELLED
        assert client.run_until_idle(executor="serial") == []
        assert client.get(record.job_id).state is JobState.CANCELLED

    def test_cancel_marker_observed_at_phase_boundary(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(CloneJobSpec(request=_request()))
        with open(store.cancel_path(record.job_id), "w") as handle:
            handle.write("now\n")
        outcome = execute_job(store.root, record.job_id,
                              collect_telemetry=False)
        assert outcome.state is JobState.CANCELLED
        final = store.get(record.job_id)
        assert final.state is JobState.CANCELLED
        assert "cancel" in final.error
        # The store stays healthy: listing and resubmission still work.
        assert [r.job_id for r in store.list()] == [record.job_id]
        store.submit(CloneJobSpec(request=_request()))

    def test_cancel_terminal_job_is_a_no_op(self, tmp_path):
        client = FleetClient(str(tmp_path))
        record = client.submit(_request())
        client.cancel(record.job_id)
        again = client.cancel(record.job_id)
        assert again.state is JobState.CANCELLED


class TestScheduler:
    def test_priority_order(self, tmp_path):
        client = FleetClient(str(tmp_path))
        low = client.submit(_request(), name="low", priority=0)
        high = client.submit(_request(seed=23), name="high", priority=5)
        outcomes = client.run_until_idle(executor="serial")
        assert [o.job_id for o in outcomes] == [high.job_id, low.job_id]

    def test_new_submissions_drain_in_next_round(self, tmp_path):
        client = FleetClient(str(tmp_path))
        client.submit(_request())
        outcomes = client.run_until_idle(executor="serial")
        assert len(outcomes) == 1
        client.submit(_request(seed=23))
        assert len(client.run_until_idle(executor="serial")) == 1
        assert len(client.list((JobState.PUBLISHED,))) == 2

    def test_watch_returns_terminal_record(self, tmp_path):
        client = FleetClient(str(tmp_path))
        record = client.submit(_request())
        client.run_until_idle(executor="serial")
        final = client.watch(record.job_id, timeout_s=1.0, poll_s=0.01)
        assert final.state is JobState.PUBLISHED

    def test_watch_times_out_on_queued_job(self, tmp_path):
        client = FleetClient(str(tmp_path))
        record = client.submit(_request())
        with pytest.raises(TimeoutError):
            client.watch(record.job_id, timeout_s=0.05, poll_s=0.01)


def _crash_once_then_execute(marker, parent_pid, store_root, job_id,
                             *args, **options):
    # Kill one pool worker, once. Never the parent: the serial fallback
    # re-runs this same function there.
    if os.getpid() != parent_pid:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(23)
    return worker_module.execute_job(store_root, job_id, *args, **options)


class TestPoolFallback:
    def test_broken_pool_reruns_every_unfinished_job_serially(
            self, tmp_path, monkeypatch):
        client = FleetClient(str(tmp_path / "store"))
        jobs = [client.submit(_request(), name=f"job-{index}")
                for index in range(4)]
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(
            scheduler_module, "execute_job",
            functools.partial(_crash_once_then_execute, marker,
                              os.getpid()))
        scheduler = FleetScheduler(client.store, executor="process",
                                   max_workers=2)
        outcomes = scheduler._run_round()
        assert os.path.exists(marker)  # a worker did die
        for job in jobs:
            assert client.get(job.job_id).state is JobState.PUBLISHED
        # every claimed job reports exactly one outcome from this round
        assert sorted(o.job_id for o in outcomes) == sorted(
            job.job_id for job in jobs)
        degradations = client.store.registry.get(
            "ditto_fleet_scheduler_degradations_total")
        assert degradations.value(from_mode="process",
                                  to_mode="serial") == 1
        assert degradations.total() == 1


class TestFleetCLI:
    def test_submit_run_watch_show(self, tmp_path, capsys):
        store = str(tmp_path)
        assert fleet_main(["submit", "--store", store,
                           "--workload", "memcached", "--fast",
                           "--tune-iterations", "1"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id
        assert fleet_main(["run", "--store", store,
                           "--executor", "serial", "--telemetry"]) == 0
        assert "1 job(s) finished, 0 failed" in capsys.readouterr().err
        assert fleet_main(["watch", "--store", store, job_id,
                           "--timeout", "5"]) == 0
        assert "published" in capsys.readouterr().out
        assert fleet_main(["show", "--store", store, job_id]) == 0
        shown = capsys.readouterr().out
        assert "submitted -> profiling" in shown
        assert "result digest" in shown

    def test_migrate_submit_run_show(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert fleet_main(["submit", "--store", store,
                           "--workload", "memcached", "--fast",
                           "--tune-iterations", "1"]) == 0
        clone_id = capsys.readouterr().out.strip()
        assert fleet_main(["run", "--store", store,
                           "--executor", "serial"]) == 0
        capsys.readouterr()
        # the published bundle records its platform, so migrate needs
        # no --source-platform; A→A keeps the run cheap
        from repro.fleet.store import JobStore
        bundle = JobStore(store).bundle_path(clone_id)
        assert migrate_main([bundle, "--destination", "A",
                             "--duration", "0.05",
                             "--max-tune-iterations", "1",
                             "--store", store]) == 0
        migrate_id = capsys.readouterr().out.strip()
        assert migrate_id and migrate_id != clone_id
        assert fleet_main(["run", "--store", store,
                           "--executor", "serial"]) == 0
        capsys.readouterr()
        assert fleet_main(["watch", "--store", store, migrate_id,
                           "--timeout", "5"]) == 0
        capsys.readouterr()
        assert fleet_main(["show", "--store", store, migrate_id]) == 0
        shown = capsys.readouterr().out
        assert "submitted -> profiling  (preflight)" in shown
        assert "profiling -> tuning  (retune)" in shown
        assert "tuning -> validating  (gate)" in shown
        assert "validating -> published" in shown
        assert "fidelity: PASS" in shown
        # one migrate CLI: the fleet has no subcommand of its own
        with pytest.raises(SystemExit):
            fleet_main(["migrate", "--store", store])

    def test_thread_executor_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fleet_main(["run", "--store", str(tmp_path),
                        "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_cancel_exit_codes(self, tmp_path, capsys):
        store = str(tmp_path)
        fleet_main(["submit", "--store", store, "--workload", "memcached",
                    "--fast"])
        job_id = capsys.readouterr().out.strip()
        assert fleet_main(["cancel", "--store", store, job_id]) == 0
        capsys.readouterr()
        assert fleet_main(["watch", "--store", store, job_id,
                           "--timeout", "1"]) == 2

    def test_unknown_job_is_an_error_not_a_traceback(self, tmp_path,
                                                     capsys):
        assert fleet_main(["show", "--store", str(tmp_path),
                           "no-such-job"]) == 1
        assert "error" in capsys.readouterr().err
