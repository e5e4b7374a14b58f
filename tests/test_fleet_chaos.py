"""Chaos-hardening the fleet: crashpoints, fencing, DLQ, drain.

The proof obligation of the chaos layer: for **every** named crashpoint
in the control plane, killing the fleet there, recovering, and
re-running publishes a bundle bit-identical to a never-crashed control
run. Plus the failure modes that are not plain kills: torn writes land
in quarantine, ENOSPC becomes job state, zombie workers are fenced off
the store, poison jobs dead-letter after their crash budget, and
SIGTERM drains the scheduler without orphaning anything.
"""

import dataclasses
import io
import json
import os
import pickle
import signal
import time

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
    CRASHPOINTS,
    ChaosAction,
    ChaosKill,
    ChaosPlan,
    CloneJobSpec,
    FleetClient,
    FleetScheduler,
    JobState,
    JobStore,
    execute_job,
)
from repro.fleet import chaos as chaos_mod
from repro.fleet.__main__ import main as fleet_main
from repro.hw.platform import PLATFORM_B
from repro.migrate import MigrationRequest
from repro.fleet.store import (
    DEFAULT_STORE_CONFIG,
    RECORD_SCHEMA,
    SCHEMA_VERSION,
)
from repro.profiling import ProfilingBudget
from repro.util.errors import (
    ArtifactIntegrityError,
    ConfigurationError,
    FaultInjectionError,
    JobStateError,
    LeaseFencedError,
)
from repro.validation import integrity
from repro.validation.remediate import RemediationPolicy

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


def _chaos_store(path, **overrides):
    """A store tuned for crash-restart cycles inside one test: stale
    leases reap instantly and crash backoffs do not slow the rerun."""
    config = dict(lease_timeout_s=0.0, heartbeat_interval_s=0.0,
                  crash_backoff_s=0.0)
    config.update(overrides)
    return JobStore(str(path), **config)


@pytest.fixture(autouse=True)
def _no_injector_leaks():
    """Chaos installs are per-process globals; never leak across tests."""
    yield
    chaos_mod.uninstall()


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """A never-crashed run of the canonical spec: the reference output."""
    store = JobStore(str(tmp_path_factory.mktemp("chaos-control")))
    record = store.submit(CloneJobSpec(request=_request()))
    outcomes = FleetScheduler(store, executor="serial").run_until_idle()
    assert [o.state for o in outcomes] == [JobState.PUBLISHED]
    final = store.get(record.job_id)
    with open(store.bundle_path(record.job_id), encoding="utf-8") as f:
        bundle = json.load(f)
    return final.result_digest, bundle


def _assert_identical(store, job_id, control):
    control_digest, control_bundle = control
    final = store.get(job_id)
    assert final.state is JobState.PUBLISHED
    assert final.result_digest == control_digest
    with open(store.bundle_path(job_id), encoding="utf-8") as f:
        assert json.load(f) == control_bundle


# ---------------------------------------------------------------------- #
# plans: validation + serialization
# ---------------------------------------------------------------------- #
class TestChaosPlan:
    def test_round_trips_through_json(self, tmp_path):
        plan = ChaosPlan(seed=7, actions=(
            ChaosAction(point="worker.publish.pre_artifact"),
            ChaosAction(point="store.save.pre_write", action="delay",
                        delay_s=0.25, on_hit=0, probability=0.5),
        ))
        path = str(tmp_path / "plan.json")
        plan.to_file(path)
        assert ChaosPlan.from_file(path) == plan
        assert plan.to_dict()["format"] == "ditto-chaos-plan/1"

    def test_empty_plan(self):
        assert ChaosPlan.empty().is_empty
        assert not ChaosPlan.empty()
        assert bool(ChaosPlan(actions=(
            ChaosAction(point="scheduler.round.pre_claim"),)))

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChaosAction(point="no.such.point")
        with pytest.raises(ConfigurationError):
            ChaosAction(point="store.save.pre_write", action="explode")
        with pytest.raises(ConfigurationError):
            ChaosAction(point="store.save.pre_write", on_hit=-1)
        with pytest.raises(ConfigurationError):
            ChaosAction(point="store.save.pre_write", probability=1.5)
        with pytest.raises(ConfigurationError):
            ChaosAction.from_dict({"point": "store.save.pre_write",
                                   "extra": 1})
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_dict({"format": "ditto-chaos-plan/99"})
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_dict({"actions": "not-a-list"})
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_file(str(bad))

    def test_every_action_name_targets_a_registered_point(self):
        for point in CRASHPOINTS:
            ChaosAction(point=point)  # must not raise


class TestInjector:
    def test_on_hit_selects_the_visit(self):
        plan = ChaosPlan(actions=(
            ChaosAction(point="scheduler.round.pre_claim",
                        action="raise", on_hit=2),))
        injector = chaos_mod.ChaosInjector(plan)
        injector.hit("scheduler.round.pre_claim")  # first visit: armed off
        with pytest.raises(FaultInjectionError):
            injector.hit("scheduler.round.pre_claim")
        injector.hit("scheduler.round.pre_claim")  # third visit: past it
        assert injector.hits["scheduler.round.pre_claim"] == 3

    def test_probability_stream_is_deterministic(self):
        def pattern(seed):
            plan = ChaosPlan(seed=seed, actions=(
                ChaosAction(point="scheduler.round.pre_claim",
                            action="raise", on_hit=0, probability=0.4),))
            injector = chaos_mod.ChaosInjector(plan)
            fired = []
            for _ in range(24):
                try:
                    injector.hit("scheduler.round.pre_claim")
                    fired.append(False)
                except FaultInjectionError:
                    fired.append(True)
            return fired

        assert pattern(11) == pattern(11)
        assert any(pattern(11)) and not all(pattern(11))
        assert pattern(11) != pattern(12)

    def test_unregistered_point_is_an_error(self):
        injector = chaos_mod.ChaosInjector(ChaosPlan.empty())
        with pytest.raises(ConfigurationError):
            injector.hit("typo.in.the.instrumentation")

    def test_single_installation(self):
        chaos_mod.install(ChaosPlan.empty())
        with pytest.raises(ConfigurationError):
            chaos_mod.install(ChaosPlan.empty())
        chaos_mod.uninstall()
        chaos_mod.uninstall()  # idempotent
        assert chaos_mod.current_injector() is None

    def test_delay_action_sleeps(self):
        plan = ChaosPlan(actions=(
            ChaosAction(point="scheduler.round.pre_claim",
                        action="delay", delay_s=0.05),))
        injector = chaos_mod.ChaosInjector(plan)
        start = time.monotonic()
        injector.hit("scheduler.round.pre_claim")
        assert time.monotonic() - start >= 0.05


# ---------------------------------------------------------------------- #
# the chaos matrix: kill everywhere, recover, publish identically
# ---------------------------------------------------------------------- #
#: crashpoints a single scheduler run visits. ``store.submit.post_claim``
#: fires at submit time (own test below), and
#: ``lease.heartbeat.pre_replace`` on the worker's daemon beat thread,
#: where a kill dies silently (covered by the direct-call test).
KILL_MATRIX = tuple(point for point in CRASHPOINTS
                    if point not in ("store.submit.post_claim",
                                     "lease.heartbeat.pre_replace"))

#: every worker crashpoint a migration job visits: all of them but the
#: shared-profile save, which only a clone has (asserted by
#: ``test_matrix_is_every_worker_point_a_migration_visits``)
MIGRATE_KILL_MATRIX = tuple(point for point in CRASHPOINTS
                            if point.startswith("worker.")
                            and point != "worker.profile.post_save")


class TestKillMatrix:
    @pytest.mark.parametrize("point", KILL_MATRIX)
    def test_kill_recover_rerun_is_bit_identical(self, tmp_path, control,
                                                 point):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        plan = ChaosPlan(actions=(ChaosAction(point=point),))
        with pytest.raises(ChaosKill):
            FleetScheduler(store, executor="serial",
                           chaos=plan).run_until_idle()
        # The killed run may have left the record queued, mid-phase with
        # an orphaned lease, or already published — recovery (run at the
        # top of every round) plus a clean rerun must converge on the
        # control output regardless.
        FleetScheduler(store, executor="serial").run_until_idle()
        _assert_identical(store, record.job_id, control)

    def test_kill_during_submit_leaves_store_usable(self, tmp_path,
                                                    control):
        store = _chaos_store(tmp_path)
        plan = ChaosPlan(actions=(
            ChaosAction(point="store.submit.post_claim"),))
        with chaos_mod.active(plan):
            with pytest.raises(ChaosKill):
                FleetClient(store).submit(_request())
        assert store.list() == []  # the burned id claim is invisible
        record = FleetClient(store).submit(_request())
        FleetScheduler(store, executor="serial").run_until_idle()
        _assert_identical(store, record.job_id, control)

    def test_kill_during_heartbeat_fences_not_crashes(self, tmp_path):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        epoch = store.claim_lease(record.job_id)
        plan = ChaosPlan(actions=(
            ChaosAction(point="lease.heartbeat.pre_replace"),))
        with chaos_mod.active(plan):
            with pytest.raises(ChaosKill):
                store.heartbeat(record.job_id, epoch)
        # The refresh died before its atomic replace: the old lease
        # payload is intact and the epoch still valid.
        assert store.lease_info(record.job_id)["epoch"] == epoch
        store.check_fence(record.job_id, epoch)
        store.release_lease(record.job_id, epoch=epoch)


class TestCrashpointCoverage:
    def test_full_run_visits_every_crashpoint(self, tmp_path, control):
        """An empty plan is bit-identical to no chaos at all, and one
        fleet run (plus the lease calls a clean run skips) touches every
        registered crashpoint — instrumentation cannot silently rot."""
        store = _chaos_store(tmp_path, heartbeat_interval_s=0.005)
        with chaos_mod.active(ChaosPlan.empty()) as injector:
            record = FleetClient(store).submit(_request())
            outcomes = FleetScheduler(
                store, executor="serial").run_until_idle()
            # a clean run never beats deterministically nor releases a
            # fenced lease by hand — drive those two points directly
            epoch = store.claim_lease(record.job_id)
            assert store.heartbeat(record.job_id, epoch)
            store.release_lease(record.job_id, epoch=epoch)
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        _assert_identical(store, record.job_id, control)
        missing = set(CRASHPOINTS) - injector.visited
        assert not missing, f"crashpoints never visited: {sorted(missing)}"


# ---------------------------------------------------------------------- #
# migration jobs under chaos: same proof obligation as clone jobs
# ---------------------------------------------------------------------- #
def _migration_request(source_bundle) -> MigrationRequest:
    return MigrationRequest(bundle_path=str(source_bundle),
                            destination=PLATFORM_B,
                            duration_s=0.05, max_tune_iterations=3)


@pytest.fixture(scope="module")
def migration_source(tmp_path_factory, control):
    """The control run's published clone bundle, as a migration source
    (fleet bundles record their platform, so no override needed)."""
    path = tmp_path_factory.mktemp("chaos-migrate") / "source.bundle.json"
    path.write_text(json.dumps(control[1]))
    return path


@pytest.fixture(scope="module")
def migration_control(tmp_path_factory, migration_source):
    """A never-crashed A→B migration: the reference output."""
    store = JobStore(str(tmp_path_factory.mktemp("migrate-control")))
    record = FleetClient(store).submit(
        _migration_request(migration_source))
    outcomes = FleetScheduler(store, executor="serial").run_until_idle()
    assert [o.state for o in outcomes] == [JobState.PUBLISHED]
    final = store.get(record.job_id)
    with open(store.bundle_path(record.job_id), encoding="utf-8") as f:
        bundle = json.load(f)
    return final.result_digest, bundle


class TestMigrationChaos:
    @pytest.mark.parametrize("point", MIGRATE_KILL_MATRIX)
    def test_kill_recover_rerun_is_bit_identical(
            self, tmp_path, migration_source, migration_control, point):
        """Killing a migration at any of its crashpoints, recovering and
        re-running publishes a migrated bundle byte-identical to the
        never-crashed control — determinism makes whole-job re-runs the
        checkpoint strategy."""
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(
            _migration_request(migration_source))
        plan = ChaosPlan(actions=(ChaosAction(point=point),))
        with pytest.raises(ChaosKill):
            FleetScheduler(store, executor="serial",
                           chaos=plan).run_until_idle()
        FleetScheduler(store, executor="serial").run_until_idle()
        final = store.get(record.job_id)
        assert final.state is JobState.PUBLISHED
        assert final.result_digest == migration_control[0]
        with open(store.bundle_path(record.job_id),
                  encoding="utf-8") as f:
            assert json.load(f) == migration_control[1]

    def test_matrix_is_every_worker_point_a_migration_visits(
            self, tmp_path, migration_source):
        store = _chaos_store(tmp_path)
        FleetClient(store).submit(_migration_request(migration_source))
        with chaos_mod.active(ChaosPlan.empty()) as injector:
            outcomes = FleetScheduler(
                store, executor="serial").run_until_idle()
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        assert {point for point in injector.visited
                if point.startswith("worker.")} == set(MIGRATE_KILL_MATRIX)

    def test_crash_mid_retune_requeues_through_recovery(
            self, tmp_path, migration_source):
        """A kill at the second phase edge — preflight done, re-tune
        entered — leaves the record in ``tuning`` with an orphaned
        lease; recover() requeues it rather than losing or
        dead-lettering it."""
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(
            _migration_request(migration_source))
        plan = ChaosPlan(actions=(
            ChaosAction(point="worker.phase.post_transition", on_hit=2),))
        with pytest.raises(ChaosKill):
            FleetScheduler(store, executor="serial",
                           chaos=plan).run_until_idle()
        crashed = store.get(record.job_id)
        assert crashed.state is JobState.TUNING
        requeued = store.recover()
        assert requeued == [record.job_id]
        assert store.get(record.job_id).state is JobState.SUBMITTED


class TestMigrationRefusals:
    """Refusals and quarantines land in ``failed`` through the shared
    exception ladder, with the reason naming what refused."""

    def test_gate_refusal_names_the_stage(self, tmp_path,
                                          migration_source):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(dataclasses.replace(
            _migration_request(migration_source),
            tolerances={"ipc": 1e-9},
            remediation=RemediationPolicy(max_attempts=0)))
        outcomes = FleetScheduler(store, executor="serial").run_until_idle()
        assert [o.state for o in outcomes] == [JobState.FAILED]
        final = store.get(record.job_id)
        assert final.history[-1].reason == "migration_gate"
        assert "[blocking: memcached/ipc]" in final.error

    def test_corrupt_source_is_quarantined(self, tmp_path,
                                           migration_source):
        broken = tmp_path / "broken.bundle.json"
        broken.write_text(migration_source.read_text()[:200])
        store = _chaos_store(tmp_path / "store")
        record = FleetClient(store).submit(_migration_request(broken))
        FleetScheduler(store, executor="serial").run_until_idle()
        final = store.get(record.job_id)
        assert final.state is JobState.FAILED
        assert [edge.reason for edge in final.history] == [
            "source_quarantined"]
        assert not broken.exists()


class _ParentFormatPickler(pickle.Pickler):
    """Pickles a record the way the store wrote it while migrations had
    a spec class (``MigrationJobSpec``) and ``migrating_*`` states of
    their own."""

    STATES = {JobState.PROFILING: "migrating_preflight",
              JobState.TUNING: "migrating_retune",
              JobState.VALIDATING: "migrating_gate"}

    def reducer_override(self, obj):
        if obj is CloneJobSpec:
            return "MigrationJobSpec"
        if isinstance(obj, JobState) and obj in self.STATES:
            return JobState, (self.STATES[obj],)
        return NotImplemented


class TestLegacyMigrationRecord:
    def test_parent_format_record_loads_and_publishes(
            self, tmp_path, migration_source, migration_control):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(
            _migration_request(migration_source))
        # a worker died mid-retune under the old lifecycle
        record.transition(JobState.PROFILING, reason="preflight")
        record.transition(JobState.TUNING, reason="retune")
        buffer = io.BytesIO()
        _ParentFormatPickler(buffer, protocol=4).dump(record)
        payload = buffer.getvalue()
        assert b"MigrationJobSpec" in payload
        assert b"migrating_retune" in payload
        integrity.write_envelope(store.record_path(record.job_id), payload,
                                 schema=RECORD_SCHEMA,
                                 version=SCHEMA_VERSION)

        loaded = store.get(record.job_id)
        assert type(loaded.spec) is CloneJobSpec
        assert loaded.spec == record.spec
        assert loaded.state is JobState.TUNING
        assert [edge.to_state for edge in loaded.history] == [
            JobState.PROFILING, JobState.TUNING]
        FleetScheduler(store, executor="serial").run_until_idle()
        final = store.get(record.job_id)
        assert final.state is JobState.PUBLISHED
        assert final.result_digest == migration_control[0]
        with open(store.bundle_path(record.job_id),
                  encoding="utf-8") as f:
            assert json.load(f) == migration_control[1]


class TestMigrationFlightLog:
    def test_migrating_edges_reconstruct_from_flight_log(
            self, tmp_path, migration_source):
        store = JobStore(str(tmp_path), flight=True,
                         lease_timeout_s=0.0, heartbeat_interval_s=0.0,
                         crash_backoff_s=0.0)
        record = FleetClient(store).submit(
            _migration_request(migration_source))
        FleetScheduler(store, executor="serial").run_until_idle()
        from repro.fleet import read_flight_log
        flight = read_flight_log(store.flight_path)
        assert flight.lifecycle(record.job_id) == [
            "submitted", "profiling", "tuning", "validating", "published"]


# ---------------------------------------------------------------------- #
# non-kill misfortunes
# ---------------------------------------------------------------------- #
class TestFailureModes:
    def test_torn_write_is_quarantined_not_trusted(self, tmp_path):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        plan = ChaosPlan(actions=(
            ChaosAction(point="store.save.post_write",
                        action="torn_write"),))
        with chaos_mod.active(plan):
            with pytest.raises(ChaosKill):
                store.save(record)
        with pytest.raises(ArtifactIntegrityError):
            store.get(record.job_id)
        assert store.list() == []  # quarantined, not poisoning the store
        # and the store keeps working for new submissions
        assert FleetClient(store).submit(_request()).job_id

    def test_enospc_becomes_job_state_and_reruns_clean(self, tmp_path,
                                                       control):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        plan = ChaosPlan(actions=(
            ChaosAction(point="worker.publish.pre_artifact",
                        action="enospc"),))
        outcomes = FleetScheduler(store, executor="serial",
                                  chaos=plan).run_until_idle()
        assert [o.state for o in outcomes] == [JobState.FAILED]
        failed = store.get(record.job_id)
        assert failed.state is JobState.FAILED
        assert "No space left" in failed.error
        # disk freed: resubmit the failed job and publish identically
        store.transition(failed, JobState.SUBMITTED, reason="resubmit")
        FleetScheduler(store, executor="serial").run_until_idle()
        _assert_identical(store, record.job_id, control)

    def test_injected_fault_becomes_failed_not_crash(self, tmp_path):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        plan = ChaosPlan(actions=(
            ChaosAction(point="worker.publish.pre_artifact",
                        action="raise"),))
        outcomes = FleetScheduler(store, executor="serial",
                                  chaos=plan).run_until_idle()
        assert [o.state for o in outcomes] == [JobState.FAILED]
        assert "FaultInjectionError" in store.get(record.job_id).error


# ---------------------------------------------------------------------- #
# fenced leases: epochs, heartbeats, zombies
# ---------------------------------------------------------------------- #
class TestFencing:
    def test_epochs_are_monotonic_per_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = FleetClient(store).submit(_request())
        first = store.claim_lease(record.job_id)
        assert first == 1
        assert store.claim_lease(record.job_id) is None  # held
        store.release_lease(record.job_id, epoch=first)
        assert store.claim_lease(record.job_id) == 2

    def test_check_fence_rejects_superseded_epochs(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = FleetClient(store).submit(_request())
        old = store.claim_lease(record.job_id)
        store.check_fence(record.job_id, old)  # still the owner: fine
        store.release_lease(record.job_id, epoch=old)
        new = store.claim_lease(record.job_id)
        with pytest.raises(LeaseFencedError) as exc:
            store.check_fence(record.job_id, old)
        assert exc.value.current == new
        store.release_lease(record.job_id, epoch=new)
        with pytest.raises(LeaseFencedError) as exc:
            store.check_fence(record.job_id, new)
        assert exc.value.current is None

    def test_stale_release_cannot_clobber_new_owner(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = FleetClient(store).submit(_request())
        old = store.claim_lease(record.job_id)
        store.release_lease(record.job_id, epoch=old)
        new = store.claim_lease(record.job_id)
        store.release_lease(record.job_id, epoch=old)  # stale: no-op
        assert store.lease_info(record.job_id)["epoch"] == new

    def test_zombie_worker_cannot_publish(self, tmp_path, control):
        """A worker resumed after its lease was re-claimed reports a
        fenced outcome and leaves the record byte-for-byte alone."""
        store = JobStore(str(tmp_path), flight=True)
        record = FleetClient(store).submit(_request())
        old = store.claim_lease(record.job_id)
        store.release_lease(record.job_id)  # fleet declared it dead
        new = store.claim_lease(record.job_id)
        outcome = execute_job(store.root, record.job_id,
                              collect_telemetry=False, epoch=old)
        assert outcome.fenced
        assert outcome.state is JobState.SUBMITTED
        untouched = store.get(record.job_id)
        assert untouched.state is JobState.SUBMITTED
        assert untouched.history == []
        assert untouched.result_digest == ""
        log = FleetClient(store).flight_log()
        assert len(log.filter(kind="worker_fenced")) == 1
        # the legitimate claim still runs the job to the control output
        live = execute_job(store.root, record.job_id,
                           collect_telemetry=False, epoch=new)
        assert live.state is JobState.PUBLISHED
        store.release_lease(record.job_id, epoch=new)
        _assert_identical(store, record.job_id, control)

    def test_stale_heartbeat_requeues_despite_live_pid(self, tmp_path):
        """pid-liveness alone never keeps a job: pids get recycled."""
        store = JobStore(str(tmp_path), lease_timeout_s=0.05,
                         heartbeat_interval_s=0.0)
        record = FleetClient(store).submit(_request())
        epoch = store.claim_lease(record.job_id)  # our own, live pid
        time.sleep(0.12)
        assert store.recover() == [record.job_id]
        requeued = store.get(record.job_id)
        assert requeued.state is JobState.SUBMITTED
        assert requeued.crash_count == 1
        assert not os.path.exists(store.lease_path(record.job_id))
        # ...and the demoted epoch is fenced off the store
        with pytest.raises(LeaseFencedError):
            store.check_fence(record.job_id, epoch)

    def test_heartbeat_keeps_a_slow_worker_alive(self, tmp_path):
        store = JobStore(str(tmp_path), lease_timeout_s=0.05,
                         heartbeat_interval_s=0.0)
        record = FleetClient(store).submit(_request())
        epoch = store.claim_lease(record.job_id)
        time.sleep(0.12)
        assert store.heartbeat(record.job_id, epoch)  # the beat arrives
        assert store.recover() == []  # fresh heart: owner is alive
        store.release_lease(record.job_id, epoch=epoch)


# ---------------------------------------------------------------------- #
# dead-letter queue
# ---------------------------------------------------------------------- #
class TestDeadLetter:
    def test_poison_job_dead_letters_after_budget(self, tmp_path, control,
                                                  capsys):
        store = _chaos_store(tmp_path, crash_backoff_s=0.01, flight=True)
        client = FleetClient(store)
        record = client.submit(_request(), max_crashes=2)
        plan = ChaosPlan(actions=(
            ChaosAction(point="worker.publish.pre_artifact"),))
        crashes, backoffs = 0, []
        for _ in range(6):
            try:
                FleetScheduler(store, executor="serial",
                               chaos=plan).run_until_idle()
            except ChaosKill:
                crashes += 1
            current = store.get(record.job_id)
            if current.next_attempt_at:
                backoffs.append(current.next_attempt_at)
            if current.state is JobState.DEAD_LETTERED:
                break
        final = store.get(record.job_id)
        assert final.state is JobState.DEAD_LETTERED
        assert crashes == 3  # budget 2 + the final straw
        assert final.crash_count == 3
        assert "dead-lettered after 3 crashes (budget 2)" in final.error
        assert sorted(backoffs) == backoffs  # exponential: non-decreasing
        # observable everywhere: /jobs entry, flight log, counter, CLI
        from repro.fleet.obs.httpd import _job_entry
        entry = _job_entry(final)
        assert entry["state"] == "dead_lettered"
        assert entry["crashes"] == 3
        log = client.flight_log()
        assert len(log.filter(kind="job_dead_lettered")) == 1
        assert store.registry.get(
            "ditto_fleet_jobs_dead_lettered_total").total() == 1
        assert fleet_main(["dlq", "--store", store.root, "list"]) == 0
        out = capsys.readouterr().out
        assert record.job_id in out and "crashes: 3" in out
        # retry resets the budget and the job publishes clean
        assert fleet_main(["dlq", "--store", store.root, "retry",
                           record.job_id]) == 0
        retried = store.get(record.job_id)
        assert retried.state is JobState.SUBMITTED
        assert retried.crash_count == 0
        FleetScheduler(store, executor="serial").run_until_idle()
        _assert_identical(store, record.job_id, control)

    def test_retry_requires_a_dead_lettered_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = FleetClient(store).submit(_request())
        with pytest.raises(JobStateError):
            store.retry_dead_letter(record.job_id)

    def test_dlq_retry_without_id_is_usage_error(self, tmp_path, capsys):
        assert fleet_main(["dlq", "--store", str(tmp_path),
                           "retry"]) == 2
        assert "job id" in capsys.readouterr().err

    def test_watch_exits_nonzero_for_dead_lettered(self, tmp_path,
                                                   capsys):
        store = _chaos_store(tmp_path, max_crashes=0)
        record = FleetClient(store).submit(_request())
        store.claim_lease(record.job_id, pid=2 ** 22 + 12345)
        assert store.recover() == [record.job_id]  # budget 0: straight in
        assert store.get(record.job_id).state is JobState.DEAD_LETTERED
        assert fleet_main(["watch", "--store", store.root, record.job_id,
                           "--timeout", "1"]) == 1


# ---------------------------------------------------------------------- #
# graceful drain
# ---------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_sigterm_drains_without_orphans(self, tmp_path, control):
        store = _chaos_store(tmp_path, flight=True)
        client = FleetClient(store)
        records = [client.submit(_request()) for _ in range(3)]
        # deliver a real SIGTERM the moment the first job publishes
        plan = ChaosPlan(actions=(
            ChaosAction(point="worker.publish.post_transition",
                        action="signal", signum=signal.SIGTERM),))
        previous = signal.getsignal(signal.SIGTERM)
        with FleetScheduler(store, executor="serial", chaos=plan,
                            serve_metrics=True) as scheduler:
            assert scheduler.status_server is not None
            outcomes = scheduler.run_until_idle()
            assert scheduler.draining and not scheduler.aborted
        assert scheduler.status_server is None  # endpoint closed
        assert signal.getsignal(signal.SIGTERM) == previous  # restored
        # exactly one job finished; the rest stay cleanly queued
        assert [o.state for o in outcomes] == [JobState.PUBLISHED]
        states = [store.get(r.job_id).state for r in records]
        assert states.count(JobState.PUBLISHED) == 1
        assert states.count(JobState.SUBMITTED) == 2
        for record in records:  # zero orphaned leases or running records
            assert not os.path.exists(store.lease_path(record.job_id))
        assert store.list(
            (JobState.PROFILING, JobState.TUNING,
             JobState.VALIDATING)) == []
        assert len(client.flight_log().filter(kind="drain_requested")) == 1
        # a later, calmer scheduler finishes the drained-over work
        FleetScheduler(store, executor="serial").run_until_idle()
        for record in records:
            _assert_identical(store, record.job_id, control)

    def test_second_signal_is_a_hard_stop(self, tmp_path):
        scheduler = FleetScheduler(_chaos_store(tmp_path))
        scheduler._handle_signal(signal.SIGTERM, None)
        assert scheduler.draining and not scheduler.aborted
        scheduler._handle_signal(signal.SIGTERM, None)
        assert scheduler.aborted

    def test_drain_before_run_claims_nothing(self, tmp_path):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        scheduler = FleetScheduler(store, executor="serial")
        scheduler.request_drain()
        assert scheduler.run_until_idle() == []
        assert store.get(record.job_id).state is JobState.SUBMITTED
        assert not os.path.exists(store.lease_path(record.job_id))


# ---------------------------------------------------------------------- #
# satellites: mid-batch cancel, out-of-band errors, store config, CLI
# ---------------------------------------------------------------------- #
class TestMidBatchCancel:
    def test_cancel_between_claim_and_pickup(self, tmp_path):
        """Semantics: a cancel landing after the scheduler claimed the
        lease but before the worker picked the job up resolves at worker
        start — one clean ``submitted → cancelled`` edge, no phases."""
        store = JobStore(str(tmp_path))
        record = FleetClient(store).submit(_request())
        epoch = store.claim_lease(record.job_id)
        store.request_cancel(record.job_id)  # lease held: marker only
        assert store.get(record.job_id).state is JobState.SUBMITTED
        outcome = execute_job(store.root, record.job_id,
                              collect_telemetry=False, epoch=epoch)
        store.release_lease(record.job_id, epoch=epoch)
        assert outcome.state is JobState.CANCELLED
        final = store.get(record.job_id)
        assert final.state is JobState.CANCELLED
        assert final.error == "cancelled before start"
        assert [(e.from_state, e.to_state) for e in final.history] == [
            (JobState.SUBMITTED, JobState.CANCELLED)]


class TestOutOfBandFailure:
    def test_error_is_persisted_before_the_failed_edge(self, tmp_path):
        store = _chaos_store(tmp_path)
        record = FleetClient(store).submit(_request())
        scheduler = FleetScheduler(store, executor="serial")
        outcome = scheduler._fail_out_of_band(
            record.job_id, RuntimeError("worker exploded unpicklably"))
        assert outcome.state is JobState.FAILED
        final = store.get(record.job_id)
        assert final.state is JobState.FAILED
        assert "worker exploded unpicklably" in final.error
        assert "worker exploded unpicklably" in final.history[-1].reason


class TestStoreConfig:
    def test_overrides_persist_to_fleet_json(self, tmp_path):
        store = JobStore(str(tmp_path / "a"), lease_timeout_s=5.0,
                         max_crashes=7)
        assert store.lease_timeout_s == 5.0
        assert store.max_crashes == 7
        again = JobStore(str(tmp_path / "a"))  # no overrides: reads them
        assert again.lease_timeout_s == 5.0
        assert again.max_crashes == 7
        assert again.crash_backoff_s == \
            DEFAULT_STORE_CONFIG["crash_backoff_s"]

    def test_plain_store_writes_no_config(self, tmp_path):
        store = JobStore(str(tmp_path / "plain"))
        assert not os.path.exists(store.config_path)
        for key, value in DEFAULT_STORE_CONFIG.items():
            assert getattr(store, key) == value

    def test_invalid_config_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobStore(str(tmp_path / "x"), max_crashes=-1)
        with pytest.raises(ConfigurationError):
            JobStore(str(tmp_path / "y"), lease_timeout_s=-0.5)


class TestChaosCLI:
    def test_run_chaos_crashes_recovers_and_publishes(self, tmp_path,
                                                      capsys):
        submit = ["--workload", "memcached", "--fast",
                  "--tune-iterations", "1"]
        # the never-crashed control, through the same CLI surface
        control_store = _chaos_store(tmp_path / "control")
        assert fleet_main(["submit", "--store", control_store.root]
                          + submit) == 0
        control_id = capsys.readouterr().out.strip()
        assert fleet_main(["run", "--store", control_store.root,
                           "--executor", "serial"]) == 0
        control_final = control_store.get(control_id)
        with open(control_store.bundle_path(control_id),
                  encoding="utf-8") as f:
            cli_control = (control_final.result_digest, json.load(f))

        store = _chaos_store(tmp_path / "store")  # config lands in
        plan = ChaosPlan(actions=(                # fleet.json for the CLI
            ChaosAction(point="worker.publish.pre_artifact"),))
        plan_path = str(tmp_path / "plan.json")
        plan.to_file(plan_path)
        capsys.readouterr()
        assert fleet_main(["submit", "--store", store.root]
                          + submit) == 0
        job_id = capsys.readouterr().out.strip()
        assert fleet_main(["run", "--store", store.root,
                           "--executor", "serial",
                           "--chaos", plan_path]) == 70
        assert "chaos" in capsys.readouterr().err
        assert fleet_main(["run", "--store", store.root,
                           "--executor", "serial"]) == 0
        capsys.readouterr()
        assert fleet_main(["show", "--store", store.root, job_id]) == 0
        shown = capsys.readouterr().out
        assert "crashes survived: 1" in shown
        _assert_identical(store, job_id, cli_control)

    def test_run_rejects_an_invalid_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"actions": [{"point": "no.such.point"}]}))
        assert fleet_main(["run", "--store", str(tmp_path / "s"),
                           "--chaos", str(plan_path)]) == 1
        assert "error" in capsys.readouterr().err
