"""One fleet job, executed end to end (the scheduler's unit of work).

:func:`execute_job` is a module-level function of picklable arguments —
``(store_root, job_id)`` — so the scheduler can run it in-process or in
a process-pool worker interchangeably. It loads the job
record and runs its request — a clone through
:class:`~repro.core.cloner.DittoCloner`, a migration through
:func:`~repro.migrate.engine.migrate_request`; that one call is the only
per-kind code — with the store wired in as infrastructure:

- a :class:`_StoreObserver` turns phase boundaries into persisted
  state-machine transitions (and raises
  :class:`~repro.util.errors.JobCancelledError` when a cancel marker
  appears, so cancellation lands on a clean phase edge);
- the job's checkpoint directory makes tier progress durable
  (:class:`~repro.core.pipeline.TierCheckpoint`), so a crashed job
  resumes instead of restarting;
- the store's ``cache/`` directory becomes the fleet-wide
  :class:`~repro.runtime.expcache.SharedExperimentCache`, so identical
  specs reuse each other's tuning measurements;
- profiling sessions are saved keyed by spec digest and reused outright
  by later jobs with the same spec.

Cancel-before-start, the resume rewind, fencing, the exception ladder,
the publish crashpoints and the terminal transitions are written once
for both kinds. Migrations keep no checkpoints: they are cheap enough
to re-run whole, and determinism makes the re-run byte-identical.

When the scheduler passes the lease's fencing ``epoch``, the worker is
a *fenced* participant: a daemon thread refreshes the lease heartbeat
every ``heartbeat_interval_s``, and the epoch is re-checked at every
phase boundary, before artifact publish, and before every terminal
transition. A zombie — a worker falsely declared dead, whose job was
re-claimed at a newer epoch — gets :class:`~repro.util.errors.
LeaseFencedError` and reports a ``fenced`` outcome **without touching
the record**: the new owner's run is authoritative. Direct calls
without an epoch (tests, one-off tools) skip fencing entirely.

Tiers run serially *within* a job — the fleet parallelises across jobs,
and nesting a process pool inside a pool worker would deadlock. Output
is bit-identical to the one-shot path: the executor mode, cache
placement, fencing and heartbeats are not inputs to any random stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.bundle import (
    deployment_from_bundle,
    save_bundle,
    write_bundle_document,
)
from repro.core.cloner import CloneObserver, DittoCloner
from repro.fleet.chaos import ChaosPlan, crashpoint, maybe_active
from repro.fleet.job import JobResult, JobState
from repro.fleet.store import JobStore
from repro.migrate.engine import migrate_request
from repro.migrate.request import MigrationRequest
from repro.telemetry.session import Telemetry, WorkerTelemetry
from repro.util.errors import (
    ArtifactIntegrityError,
    JobCancelledError,
    LeaseFencedError,
    MigrationError,
)
from repro.util.spec_hash import stable_digest
from repro.validation.remediate import RemediationStep

__all__ = ["JobWorkerOutcome", "execute_job"]

#: cloner phase → job state the observer drives the record into
_PHASE_STATES = {
    "profiling": JobState.PROFILING,
    "tuning": JobState.TUNING,
    "validating": JobState.VALIDATING,
}


@dataclass
class JobWorkerOutcome:
    """What one worker invocation reports back (picklable)."""

    job_id: str
    state: JobState
    error: str = ""
    result_digest: str = ""
    #: remediation rungs climbed during this invocation
    attempts: int = 0
    #: True when the worker was stopped by lease fencing — the job now
    #: belongs to a newer claim and this invocation changed nothing
    fenced: bool = False
    #: spans + counters recorded by the worker-local session (None when
    #: the job ran under the scheduler's own ambient session)
    telemetry: Optional[WorkerTelemetry] = None


class _StoreObserver(CloneObserver):
    """Persist a clone's or migration's phase boundaries as job
    transitions."""

    def __init__(self, store: JobStore, record,
                 fence: Optional[Callable[[], None]] = None) -> None:
        self.store = store
        self.record = record
        self.fence = fence

    def on_phase(self, phase: str, *, attempt: int = 0,
                 reason: str = "") -> None:
        if self.fence is not None:
            self.fence()
        if self.store.cancel_requested(self.record.job_id):
            raise JobCancelledError(
                f"job {self.record.job_id} cancelled "
                f"(marker observed entering {phase!r})",
                job_id=self.record.job_id)
        target = _PHASE_STATES.get(phase)
        if target is None:
            return
        if self.record.state is target:
            if target is not JobState.TUNING or attempt == 0:
                return  # idempotent re-entry; only remediation loops
        self.store.transition(self.record, target, reason=reason or phase)
        crashpoint("worker.phase.post_transition",
                   job_id=self.record.job_id)

    def on_remediation(self, step: RemediationStep) -> None:
        self.record.attempts += 1
        self.store.save(self.record)
        self.store._emit("remediation", job_id=self.record.job_id,
                         rung=self.record.attempts, reason=step.reason)


class _LeaseHeartbeat:
    """Refresh a job's lease heartbeat on an interval (daemon thread).

    Exits silently when the lease disappears or the epoch is
    superseded — the fence checks in the main execution path do the
    actual enforcement; the beat only keeps a live worker *looking*
    alive to :meth:`~repro.fleet.store.JobStore.recover`.
    """

    def __init__(self, store: JobStore, job_id: str, epoch: int) -> None:
        self.store = store
        self.job_id = job_id
        self.epoch = epoch
        self.interval_s = store.heartbeat_interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self.interval_s <= 0:
            return
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"ditto-heartbeat-{self.job_id}")
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                if not self.store.heartbeat(self.job_id, self.epoch):
                    return  # fenced or released: stop beating
            except BaseException:  # noqa: BLE001 — incl. chaos kills
                return  # a failed beat must never take the worker down
        return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)


def execute_job(store_root: str, job_id: str,
                collect_telemetry: bool = True, *,
                epoch: Optional[int] = None,
                chaos: Optional[ChaosPlan] = None) -> JobWorkerOutcome:
    """Run one job to a terminal-or-requeued state; never raises on
    ordinary failure (the failure becomes the job's state).

    ``epoch`` is the fencing epoch of the caller's lease claim (None
    disables fencing and heartbeats — the direct-call path). ``chaos``
    installs a chaos plan for the duration when this process has none
    yet (how a process-pool worker joins the scheduler's plan).

    ``BaseException`` (a kill signal, ``KeyboardInterrupt``, a chaos
    kill) does propagate — that is the crash the lease/recovery
    machinery exists for, and the record deliberately stays in its
    running state so :meth:`~repro.fleet.store.JobStore.recover` can
    requeue it.
    """
    with maybe_active(chaos):
        outcome, payload = Telemetry.record_in_worker(
            collect_telemetry, _execute, store_root, job_id, epoch)
    outcome.telemetry = payload
    return outcome


def _execute(store_root: str, job_id: str,
             epoch: Optional[int]) -> JobWorkerOutcome:
    store = JobStore(store_root)
    record = store.get(job_id)
    crashpoint("worker.start.post_load", job_id=job_id)
    if record.terminal:
        return JobWorkerOutcome(job_id=job_id, state=record.state,
                                error=record.error,
                                result_digest=record.result_digest)

    def fence() -> None:
        if epoch is not None:
            store.check_fence(job_id, epoch)

    beat = (_LeaseHeartbeat(store, job_id, epoch)
            if epoch is not None else None)
    if beat is not None:
        beat.start()
    try:
        return _execute_fenced(store, record, fence)
    except LeaseFencedError as error:
        return _fenced_outcome(store, record, error)
    finally:
        if beat is not None:
            beat.stop()


def _execute_fenced(store: JobStore, record,
                    fence: Callable[[], None]) -> JobWorkerOutcome:
    job_id = record.job_id
    attempts_before = record.attempts
    fence()
    if store.cancel_requested(job_id):
        # Mid-batch cancellation: the marker landed after the scheduler
        # claimed the lease but before this worker picked the job up.
        # Resolve it here, before any phase work — the record goes
        # straight submitted → cancelled, no partial phases.
        return _finish(store, record, fence, JobState.CANCELLED,
                       "cancelled before start", "cancelled before start",
                       attempts_before)
    if record.running:
        # Re-dispatched by the serial fallback of a broken pool (or a
        # requeue the scheduler missed): rewind to submitted so the
        # phase transitions replay legally; tier checkpoints keep it
        # cheap.
        store.transition(record, JobState.SUBMITTED, reason="resume")
    run = (_run_migration if isinstance(record.spec.request,
                                        MigrationRequest)
           else _run_clone)
    try:
        job_result, write_artifact = run(
            store, record, _StoreObserver(store, record, fence=fence))
    except LeaseFencedError:
        raise  # a zombie stops cold — the record is the new owner's
    except JobCancelledError as error:
        return _finish(store, record, fence, JobState.CANCELLED,
                       str(error), "cancelled", attempts_before)
    except MigrationError as error:
        stage = error.stage or "refused"
        return _finish(store, record, fence, JobState.FAILED,
                       f"migration {stage}: {error}"
                       + (f" [blocking: {', '.join(error.blocking)}]"
                          if error.blocking else ""),
                       f"migration_{stage}", attempts_before)
    except ArtifactIntegrityError as error:
        return _finish(store, record, fence, JobState.FAILED,
                       f"source bundle quarantined: {error}",
                       "source_quarantined", attempts_before)
    except Exception as error:  # noqa: BLE001 — failures become job state
        return _finish(store, record, fence, JobState.FAILED,
                       f"{type(error).__name__}: {error}",
                       type(error).__name__, attempts_before)
    try:
        fence()
        crashpoint("worker.publish.pre_artifact", job_id=job_id,
                   path=store.result_path(job_id))
        store.save_result(job_result)
        crashpoint("worker.publish.post_result", job_id=job_id,
                   path=store.result_path(job_id))
        write_artifact()
        record.result_digest = job_result.result_digest
        record.error = ""
        crashpoint("worker.publish.pre_transition", job_id=job_id)
        fence()
        store.transition(record, JobState.PUBLISHED,
                         reason=("gate passed"
                                 if job_result.fidelity is not None
                                 else "published"))
    except LeaseFencedError:
        raise
    except Exception as error:  # noqa: BLE001 — e.g. ENOSPC mid-publish
        return _finish(store, record, fence, JobState.FAILED,
                       f"publish failed: {type(error).__name__}: {error}",
                       type(error).__name__, attempts_before)
    crashpoint("worker.publish.post_transition", job_id=job_id)
    return JobWorkerOutcome(job_id=job_id, state=JobState.PUBLISHED,
                            result_digest=job_result.result_digest,
                            attempts=record.attempts - attempts_before)


def _finish(store: JobStore, record, fence: Callable[[], None],
            state: JobState, error: str, reason: str,
            attempts_before: int) -> JobWorkerOutcome:
    """Land a job that will not publish in ``state`` (error first)."""
    fence()
    record.error = error
    store.transition(record, state, reason=reason)
    return JobWorkerOutcome(job_id=record.job_id, state=state, error=error,
                            attempts=record.attempts - attempts_before)


def _run_clone(store: JobStore, record, observer: _StoreObserver,
               ) -> Tuple[JobResult, Callable[[], None]]:
    """Clone the job's request; returns its result and bundle writer."""
    job_id = record.job_id
    request = record.spec.request
    cloner = DittoCloner(
        observer=observer,
        checkpoint_dir=store.checkpoint_dir(job_id),
        shared_cache_dir=store.cache_dir,
        executor="serial",
    )
    profile = store.load_profile(record.spec_digest)
    if profile is not None:
        result = cloner.clone_from_profile(profile, request)
    else:
        result = cloner.clone(request)
    report = result.report
    if profile is None and report.profile is not None:
        store.save_profile(record.spec_digest, report.profile)
        crashpoint("worker.profile.post_save", job_id=job_id,
                   path=store.profile_path(record.spec_digest))
    tuned: Dict[str, object] = {
        name: tuning.knobs for name, tuning in report.tuning.items()}
    cache = report.cache_stats
    store._emit("job_cache", job_id=job_id, hits=cache.hits,
                misses=cache.misses, bypasses=cache.bypasses)
    job_result = JobResult(
        job_id=job_id,
        synthetic=result.synthetic,
        spec_digest=record.spec_digest,
        fidelity=(report.fidelity.to_dict()
                  if report.fidelity is not None else None),
        remediation=[step.reason for step in report.remediation],
        executor=report.executor,
        cache_stats=report.cache_stats,
        result_digest=stable_digest({
            "synthetic": result.synthetic, "tuned_knobs": tuned}),
        tuning_iterations={name: tuning.iterations
                           for name, tuning in report.tuning.items()},
    )
    # The bundle records the job's platform, so it can go straight into
    # a migration, and each tier's generator seed and the request's
    # generator switches, so it regenerates this clone.
    return job_result, lambda: save_bundle(
        report.features, store.bundle_path(job_id),
        entry_service=result.synthetic.entry_service,
        placements={p.service: p.node for p in result.synthetic.placements},
        tuned_knobs=tuned, source_platform=request.config.platform,
        generator_seeds=report.generator_seeds,
        generator_config=request.generator_config)


def _run_migration(store: JobStore, record, observer: _StoreObserver,
                   ) -> Tuple[JobResult, Callable[[], None]]:
    """Migrate the job's bundle; returns its result and document writer."""
    result = migrate_request(record.spec.request, observer=observer)
    document = result.document
    job_result = JobResult(
        job_id=record.job_id,
        synthetic=deployment_from_bundle(document),
        spec_digest=record.spec_digest,
        fidelity=result.fidelity.to_dict(),
        remediation=list(result.remediation),
        executor="serial",
        result_digest=stable_digest({"migration_document": document}),
        tuning_iterations=dict(result.tuning_iterations),
    )
    return job_result, lambda: write_bundle_document(
        document, store.bundle_path(record.job_id))


def _fenced_outcome(store: JobStore, record,
                    error: LeaseFencedError) -> JobWorkerOutcome:
    """Report a zombie stop: flight event + counter, record untouched."""
    store._emit("worker_fenced", job_id=record.job_id,
                epoch=error.epoch,
                current_epoch=(-1 if error.current is None
                               else error.current))
    store.registry.counter(
        "ditto_fleet_workers_fenced_total",
        "zombie workers stopped by lease fencing", ()).inc()
    return JobWorkerOutcome(job_id=record.job_id, state=record.state,
                            error=str(error), fenced=True)
