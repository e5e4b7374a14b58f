"""The persistent, digest-keyed job store behind the fleet control plane.

One directory holds everything a fleet needs to survive a crash:

```
<root>/
  fleet.json               durable store tuning (lease timeout, crash
                           backoff, heartbeat interval, crash budget)
  jobs/<job_id>.rec        job record (digest-stamped envelope)
  jobs/<job_id>.claim      O_EXCL allocation marker (job-id uniqueness)
  jobs/<job_id>.lease      "a worker owns this" (JSON: pid + fencing
                           epoch + heartbeat; appears atomically with
                           its full payload via link(tmp, lease))
  jobs/<job_id>.epoch      monotonic fencing-epoch counter (persisted
                           *before* the lease it fences)
  jobs/<job_id>.cancel     cancellation marker (observed at phase edges)
  profiles/<digest>.pkl    profiling sessions keyed by *spec* digest
  results/<job_id>.pkl     published JobResult envelope
  results/<job_id>.fidelity.json   FidelityReport document (CI artifact)
  results/<job_id>.bundle.json     shareable clone bundle
  checkpoints/<job_id>/    per-tier TierCheckpoint directory
  cache/                   fleet-wide SharedExperimentCache entries
  flight/events.jsonl      flight-recorder event log (opt-in, see below)
  fidelity/<digest>.jsonl  per-spec fidelity-drift history
```

Every record/result/profile write goes through
:mod:`repro.validation.integrity` envelopes — atomic replace, digest
trailer, quarantine-on-corruption — so a killed worker can never leave
a half-written record, and a corrupted one is moved aside (and counted)
instead of being trusted. Profiles are keyed by the *spec* digest, not
the job id: a second job with an identical spec reuses the first job's
profiling session outright.

Leases make crash recovery explicit — and *fenced*. Every claim mints
a monotonic per-job fencing epoch (persisted before the lease exists),
and workers refresh a heartbeat timestamp inside the lease while they
run. :meth:`JobStore.recover` decides deadness from the lease itself:
missing/unreadable, a provably dead pid, or a heartbeat older than
``lease_timeout_s`` — never from pid liveness alone, because pids are
recycled. A worker that was falsely declared dead is *fenced*: its
epoch no longer matches the lease, so :meth:`check_fence` stops it
before any terminal transition or artifact publish
(:class:`~repro.util.errors.LeaseFencedError`). Crash requeues carry a
persisted ``crash_count`` with exponential backoff; a job that keeps
killing its worker exceeds ``max_crashes`` and lands in the terminal
``dead_lettered`` state until :meth:`retry_dead_letter`.

Store/worker mutations are bracketed by named chaos crashpoints
(:mod:`repro.fleet.chaos`) — no-ops unless a chaos plan is installed;
the chaos matrix test kills the fleet at every one of them and asserts
recovery reproduces the bit-identical bundle.

The store is also the fleet's observability tap. With the flight
recorder enabled (``flight=True``, or auto-enabled whenever
``<root>/flight/`` exists so pool workers opening the same root join
in) every submit, state edge, lease claim/release, recovery, cancel
request, profile reuse and published result is appended to the flight
log (:mod:`repro.fleet.obs.flight`). Published gated results
additionally append to the per-spec fidelity-drift history and set
``ditto_fidelity_error{metric,platform}`` gauges. All of it is
wall-clock-side bookkeeping — no random stream is touched, so clone
digests are bit-identical with observability on or off.
"""

from __future__ import annotations

import glob
import json
import math
import os
import time
from typing import Dict, Iterable, List, Optional

from repro.fleet.chaos import crashpoint
from repro.fleet.job import (
    RUNNING_STATES,
    TERMINAL_STATES,
    CloneJobRecord,
    CloneJobSpec,
    JobResult,
    JobState,
)
from repro.fleet.obs.flight import FlightRecorder
from repro.profiling.collector import PROFILE_VERSION, ApplicationProfile
from repro.telemetry.context import current_session
from repro.telemetry.registry import MetricsRegistry
from repro.util.errors import (
    ArtifactIntegrityError,
    ConfigurationError,
    JobStateError,
    LeaseFencedError,
)
from repro.validation import integrity

__all__ = ["JobStore"]

#: envelope schemas (and their payload versions) the store writes
RECORD_SCHEMA = "fleet-job-record"
RESULT_SCHEMA = "fleet-job-result"
PROFILE_SCHEMA = "fleet-profile"
SCHEMA_VERSION = 1

#: registry metric names the store accounts through
STORE_METRICS = {
    "submitted": ("ditto_fleet_jobs_submitted_total",
                  "fleet jobs accepted into the store", ()),
    "transitions": ("ditto_fleet_job_transitions_total",
                    "fleet job state-machine edges taken",
                    ("from_state", "to_state")),
    "recovered": ("ditto_fleet_jobs_recovered_total",
                  "orphaned running jobs requeued after a crash", ()),
    "profile_reuse": ("ditto_fleet_profile_reuse_total",
                      "jobs that reused a stored profiling session", ()),
    "published": ("ditto_fleet_jobs_published_total",
                  "fleet jobs that reached the published state", ()),
    "failed": ("ditto_fleet_jobs_failed_total",
               "fleet jobs that reached the failed state", ()),
    "dead_lettered": ("ditto_fleet_jobs_dead_lettered_total",
                      "jobs dead-lettered after exhausting their "
                      "crash budget", ()),
}

#: durable store tuning (persisted to ``<root>/fleet.json`` when a
#: constructor overrides them, so worker processes opening the same
#: root agree on timeouts without threading arguments through pools)
DEFAULT_STORE_CONFIG = {
    "lease_timeout_s": 30.0,      # heartbeat staleness → owner is dead
    "heartbeat_interval_s": 2.0,  # worker beat cadence (0 = no beat)
    "crash_backoff_s": 0.5,       # base of the crash-requeue backoff
    "max_crashes": 3,             # crash budget before dead-lettering
}

#: terminal-latency histogram buckets (seconds from submission to a
#: terminal state — fleet jobs span milliseconds in tests to minutes
#: on real sweeps)
JOB_DURATION_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                        10.0, 30.0, 60.0, 300.0, 1800.0)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class JobStore:
    """Durable job state under one root directory (see module doc)."""

    def __init__(self, root: str, *,
                 registry: Optional[MetricsRegistry] = None,
                 flight: Optional[bool] = None,
                 lease_timeout_s: Optional[float] = None,
                 heartbeat_interval_s: Optional[float] = None,
                 crash_backoff_s: Optional[float] = None,
                 max_crashes: Optional[int] = None) -> None:
        if not isinstance(root, str) or not root:
            raise ConfigurationError(
                f"store root must be a path string, got {root!r}")
        self.root = root
        self.config_path = os.path.join(root, "fleet.json")
        self._load_config(lease_timeout_s=lease_timeout_s,
                          heartbeat_interval_s=heartbeat_interval_s,
                          crash_backoff_s=crash_backoff_s,
                          max_crashes=max_crashes)
        self.jobs_dir = os.path.join(root, "jobs")
        self.profiles_dir = os.path.join(root, "profiles")
        self.results_dir = os.path.join(root, "results")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        #: the fleet-wide shared experiment cache directory
        self.cache_dir = os.path.join(root, "cache")
        #: per-spec fidelity-drift histories (one JSONL per digest)
        self.fidelity_dir = os.path.join(root, "fidelity")
        #: flight-recorder home (existence doubles as the enable flag)
        self.flight_dir = os.path.join(root, "flight")
        for directory in (self.jobs_dir, self.profiles_dir,
                          self.results_dir, self.checkpoints_dir,
                          self.cache_dir, self.fidelity_dir):
            os.makedirs(directory, exist_ok=True)
        if registry is None:
            session = current_session()
            registry = (session.registry if session is not None
                        else MetricsRegistry())
        self.registry = registry
        self._counters = {
            key: registry.counter(name, help_text, labels)
            for key, (name, help_text, labels) in STORE_METRICS.items()
        }
        self._duration = registry.histogram(
            "ditto_fleet_job_duration_seconds",
            "submission-to-terminal-state latency per outcome",
            ("state",), buckets=JOB_DURATION_BUCKETS)
        self._fidelity_error = registry.gauge(
            "ditto_fidelity_error",
            "latest per-metric relative fidelity error of a published "
            "job", ("metric", "platform"))
        # ``flight=None`` means "follow the store": a directory created
        # once (by ``flight=True``, the CLI, or a test) enables the
        # recorder for every later process opening the same root — this
        # is how pickled pool workers join the log without threading a
        # flag through the executor.
        if flight is True:
            os.makedirs(self.flight_dir, exist_ok=True)
        enabled = (flight if flight is not None
                   else os.path.isdir(self.flight_dir))
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(self.flight_path) if enabled else None)

    def _load_config(self, **overrides) -> None:
        """Resolve store tuning: defaults ← ``fleet.json`` ← overrides.

        Explicit constructor values are persisted (atomically) so every
        later process opening the same root — notably pickled pool
        workers — recovers and heartbeats with the same timeouts. A
        plain ``JobStore(root)`` writes nothing.
        """
        try:
            with open(self.config_path, encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            stored = {}
        if not isinstance(stored, dict):
            stored = {}
        merged = dict(DEFAULT_STORE_CONFIG)
        merged.update({key: stored[key] for key in DEFAULT_STORE_CONFIG
                       if key in stored})
        given = {key: value for key, value in overrides.items()
                 if value is not None}
        merged.update(given)
        for key in ("lease_timeout_s", "heartbeat_interval_s",
                    "crash_backoff_s"):
            try:
                merged[key] = float(merged[key])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{key} must be a number, got {merged[key]!r}"
                    ) from None
            if merged[key] < 0:
                raise ConfigurationError(
                    f"{key} cannot be negative, got {merged[key]!r}")
        if not isinstance(merged["max_crashes"], int) \
                or isinstance(merged["max_crashes"], bool) \
                or merged["max_crashes"] < 0:
            raise ConfigurationError(
                f"max_crashes must be an int >= 0, "
                f"got {merged['max_crashes']!r}")
        self.lease_timeout_s = merged["lease_timeout_s"]
        self.heartbeat_interval_s = merged["heartbeat_interval_s"]
        self.crash_backoff_s = merged["crash_backoff_s"]
        self.max_crashes = merged["max_crashes"]
        if given and any(stored.get(key) != merged[key]
                         for key in DEFAULT_STORE_CONFIG):
            os.makedirs(self.root, exist_ok=True)
            scratch = f"{self.config_path}.tmp-{os.getpid()}"
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(merged, handle, indent=2, sort_keys=True)
            os.replace(scratch, self.config_path)

    @property
    def flight_path(self) -> str:
        return os.path.join(self.flight_dir, "events.jsonl")

    def _emit(self, kind: str, *, job_id: str = "", **data) -> None:
        """Flight-record one event (no-op when the recorder is off)."""
        if self.flight is not None:
            self.flight.emit(kind, job_id=job_id, **data)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.rec")

    def lease_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.lease")

    def epoch_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.epoch")

    def cancel_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.cancel")

    def profile_path(self, spec_digest: str) -> str:
        return os.path.join(self.profiles_dir, f"{spec_digest[:32]}.pkl")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.pkl")

    def fidelity_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.fidelity.json")

    def bundle_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.bundle.json")

    def fidelity_history_path(self, spec_digest: str) -> str:
        return os.path.join(self.fidelity_dir,
                            f"{spec_digest[:32]}.jsonl")

    def checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.checkpoints_dir, job_id)

    # ------------------------------------------------------------------ #
    # submission / persistence
    # ------------------------------------------------------------------ #
    def submit(self, spec) -> CloneJobRecord:
        """Allocate a job id for ``spec`` and persist its record.

        Ids are ``<spec-digest-prefix>-<n>``: the digest groups
        jobs by experiment identity, the suffix distinguishes
        resubmissions. Allocation uses an ``O_EXCL`` claim file, so two
        concurrent submitters can never mint the same id.
        """
        if not isinstance(spec, CloneJobSpec):
            raise ConfigurationError(
                f"submit takes a CloneJobSpec, got {spec!r}")
        digest = spec.digest()
        for n in range(10_000):
            job_id = f"{digest[:12]}-{n}"
            claim = os.path.join(self.jobs_dir, f"{job_id}.claim")
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            break
        else:  # pragma: no cover — 10k resubmissions of one spec
            raise ConfigurationError(
                f"could not allocate a job id for digest {digest[:12]}")
        crashpoint("store.submit.post_claim", job_id=job_id)
        now = time.time()
        record = CloneJobRecord(job_id=job_id, spec=spec,
                                spec_digest=digest, created_at=now,
                                updated_at=now)
        self.save(record)
        self._counters["submitted"].inc()
        self._emit("job_submitted", job_id=job_id, digest=digest,
                   name=spec.name, priority=spec.priority)
        return record

    def save(self, record: CloneJobRecord) -> None:
        """Persist ``record`` atomically (envelope write)."""
        path = self.record_path(record.job_id)
        crashpoint("store.save.pre_write", job_id=record.job_id,
                   path=path)
        integrity.save_object(path, record, schema=RECORD_SCHEMA,
                              version=SCHEMA_VERSION)
        crashpoint("store.save.post_write", job_id=record.job_id,
                   path=path)

    def get(self, job_id: str) -> CloneJobRecord:
        """Load one record; corruption quarantines and raises."""
        return integrity.load_object(self.record_path(job_id),
                                     schema=RECORD_SCHEMA,
                                     max_version=SCHEMA_VERSION)

    def list(self, states: Optional[Iterable[JobState]] = None,
             ) -> List[CloneJobRecord]:
        """All readable records, oldest first (corrupt files skipped).

        A corrupted record is quarantined by the integrity layer (and
        counted in ``ditto_artifact_quarantines_total``) but does not
        poison the listing — the rest of the store stays usable.
        """
        wanted = tuple(states) if states is not None else None
        records = []
        for path in sorted(glob.glob(os.path.join(self.jobs_dir, "*.rec"))):
            try:
                record = self.get(os.path.basename(path)[:-len(".rec")])
            except (ArtifactIntegrityError, FileNotFoundError):
                continue
            if wanted is None or record.state in wanted:
                records.append(record)
        records.sort(key=lambda r: (r.created_at, r.job_id))
        return records

    def transition(self, record: CloneJobRecord, to_state: JobState, *,
                   reason: str = "") -> None:
        """Take one state-machine edge and persist it (counted)."""
        from_state = record.state
        record.transition(to_state, reason=reason)
        self.save(record)
        crashpoint("store.transition.post_save", job_id=record.job_id)
        self._counters["transitions"].inc(
            1, from_state=from_state.value, to_state=to_state.value)
        if to_state in TERMINAL_STATES:
            self._duration.observe(
                max(0.0, record.updated_at - record.created_at),
                state=to_state.value)
            if to_state is JobState.PUBLISHED:
                self._counters["published"].inc()
            elif to_state is JobState.FAILED:
                self._counters["failed"].inc()
            elif to_state is JobState.DEAD_LETTERED:
                self._counters["dead_lettered"].inc()
        self._emit("job_state", job_id=record.job_id,
                   **{"from": from_state.value, "to": to_state.value,
                      "reason": reason})

    # ------------------------------------------------------------------ #
    # leases (worker ownership + fencing + crash detection)
    # ------------------------------------------------------------------ #
    def claim_lease(self, job_id: str, *,
                    pid: Optional[int] = None) -> Optional[int]:
        """Claim exclusive ownership of ``job_id``.

        Returns the claim's **fencing epoch** (monotonic per job, > 0)
        or None when someone already holds the lease. The epoch counter
        is persisted *before* the lease is linked, so two claims can
        never share an epoch (a crash in between merely skips one).
        The lease file appears atomically with its complete JSON
        payload — ``link(tmp, lease)`` after the tmp is fully written —
        so a concurrent :meth:`recover` can never read a half-written
        lease and requeue a live job.
        """
        lease = self.lease_path(job_id)
        if os.path.exists(lease):
            return None
        epoch = self._mint_epoch(job_id)
        crashpoint("lease.claim.pre_persist", job_id=job_id)
        owner = pid if pid is not None else os.getpid()
        now = time.time()
        scratch = f"{lease}.tmp-{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"pid": owner, "epoch": epoch, "heartbeat": now,
                       "at": now}, handle)
        try:
            os.link(scratch, lease)
        except FileExistsError:
            return None
        finally:
            os.unlink(scratch)
        crashpoint("lease.claim.post_create", job_id=job_id, path=lease)
        self._emit("lease_claimed", job_id=job_id, owner_pid=owner,
                   epoch=epoch)
        return epoch

    def _mint_epoch(self, job_id: str) -> int:
        path = self.epoch_path(job_id)
        try:
            with open(path, encoding="utf-8") as handle:
                last = int(handle.read().strip() or 0)
        except (OSError, ValueError):
            last = 0
        epoch = last + 1
        scratch = f"{path}.tmp-{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(str(epoch))
        os.replace(scratch, path)
        return epoch

    def release_lease(self, job_id: str, *,
                      epoch: Optional[int] = None) -> None:
        """Drop the lease. With ``epoch`` given, only when it still
        matches — a scheduler unwinding *after* a false requeue must
        not clobber the new owner's lease."""
        if epoch is not None:
            info = self.lease_info(job_id)
            if info is None or info["epoch"] != epoch:
                return
        crashpoint("lease.release.pre_unlink", job_id=job_id)
        try:
            os.unlink(self.lease_path(job_id))
        except FileNotFoundError:
            return
        self._emit("lease_released", job_id=job_id)

    def lease_info(self, job_id: str) -> Optional[dict]:
        """The parsed lease — pid, epoch, heartbeat, at — or None.

        Tolerates pre-epoch leases (epoch 0, heartbeat = claim time);
        anything unreadable is None, which recovery treats as dead.
        """
        try:
            with open(self.lease_path(job_id), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            pid = int(payload["pid"])
            at = float(payload.get("at", 0.0))
            epoch = int(payload.get("epoch", 0))
            heartbeat = float(payload.get("heartbeat", at))
        except (KeyError, TypeError, ValueError):
            return None
        return {"pid": pid, "epoch": epoch, "heartbeat": heartbeat,
                "at": at}

    def lease_pid(self, job_id: str) -> Optional[int]:
        """The pid holding the lease, or None (missing/unreadable)."""
        info = self.lease_info(job_id)
        return None if info is None else info["pid"]

    def heartbeat(self, job_id: str, epoch: int) -> bool:
        """Refresh the lease's heartbeat timestamp (atomic replace).

        False means stop: the lease is gone or was re-claimed at a
        newer epoch — the caller has been fenced and the fence checks
        in its main path will refuse any further mutation.
        """
        info = self.lease_info(job_id)
        if info is None or info["epoch"] != epoch:
            return False
        info["heartbeat"] = time.time()
        lease = self.lease_path(job_id)
        scratch = f"{lease}.tmp-hb-{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(info, handle)
        crashpoint("lease.heartbeat.pre_replace", job_id=job_id,
                   path=lease)
        os.replace(scratch, lease)
        return True

    def check_fence(self, job_id: str, epoch: int) -> None:
        """Raise :class:`LeaseFencedError` unless ``epoch`` still owns
        the lease. Workers call this before every terminal transition
        and artifact publish, so a zombie resumed after a false requeue
        can never double-publish."""
        info = self.lease_info(job_id)
        current = None if info is None else info["epoch"]
        if current != epoch:
            raise LeaseFencedError(
                f"job {job_id}: lease epoch {epoch} superseded "
                + ("(lease released)" if current is None
                   else f"(current epoch {current})"),
                job_id=job_id, epoch=epoch, current=current)

    def recover(self) -> List[str]:
        """Requeue or dead-letter jobs whose owner died; returns ids.

        Deadness is decided from the lease, never from pid liveness
        alone: a missing/unreadable lease, a provably dead pid, or a
        heartbeat older than ``lease_timeout_s`` all mean the owner is
        gone. A live-looking pid with a stale heartbeat is *still*
        dead — pids get recycled, so ``kill(pid, 0)`` succeeding proves
        nothing; fencing makes the rare false positive safe (the
        demoted worker can no longer publish).

        Each crash bumps the record's persisted ``crash_count``:
        within budget the job is requeued to ``submitted`` with an
        exponential-backoff ``next_attempt_at``; beyond ``max_crashes``
        it is dead-lettered. A crash between lease claim and the first
        running transition leaves a ``submitted`` record with an
        orphaned lease — reaped here too (the lease is dropped and the
        crash counted, with no state edge to take).
        """
        handled: List[str] = []
        now = time.time()
        for record in self.list(RUNNING_STATES + (JobState.SUBMITTED,)):
            if record.state is JobState.SUBMITTED \
                    and not os.path.exists(self.lease_path(record.job_id)):
                continue  # cleanly queued, nothing to recover
            verdict = self._lease_verdict(record.job_id, now)
            if verdict is None:
                continue  # owner demonstrably alive
            info = self.lease_info(record.job_id)
            self._emit("job_recovered", job_id=record.job_id,
                       dead_pid=(info["pid"] if info else 0),
                       from_state=record.state.value, verdict=verdict)
            self.release_lease(record.job_id)
            self._requeue_or_dead_letter(record, now)
            handled.append(record.job_id)
        return handled

    def _lease_verdict(self, job_id: str, now: float) -> Optional[str]:
        """Why the lease's owner is dead, or None when it is alive."""
        info = self.lease_info(job_id)
        if info is None:
            return "lease missing or unreadable"
        if not _pid_alive(info["pid"]):
            return f"owner pid {info['pid']} is dead"
        age = now - info["heartbeat"]
        if age > self.lease_timeout_s:
            return (f"heartbeat stale ({age:.1f}s > "
                    f"{self.lease_timeout_s:.1f}s)")
        return None

    def _requeue_or_dead_letter(self, record: CloneJobRecord,
                                now: float) -> None:
        record.crash_count += 1
        limit = record.spec.max_crashes
        if limit is None:
            limit = self.max_crashes
        if record.crash_count > limit:
            record.error = (f"dead-lettered after {record.crash_count} "
                            f"crashes (budget {limit})")
            self.transition(record, JobState.DEAD_LETTERED,
                            reason=record.error)
            self._emit("job_dead_lettered", job_id=record.job_id,
                       crash_count=record.crash_count, budget=limit)
            return
        record.next_attempt_at = now + self.crash_backoff_s * (
            2 ** (record.crash_count - 1))
        if record.state is JobState.SUBMITTED:
            self.save(record)  # no self-edge; the crash fields persist
        else:
            self.transition(record, JobState.SUBMITTED,
                            reason="recovered")
        self._counters["recovered"].inc()

    def retry_dead_letter(self, job_id: str) -> CloneJobRecord:
        """Give a dead-lettered job a fresh crash budget and requeue it."""
        record = self.get(job_id)
        if record.state is not JobState.DEAD_LETTERED:
            raise JobStateError(
                f"job {job_id} is {record.state}, not dead_lettered")
        record.crash_count = 0
        record.next_attempt_at = 0.0
        record.error = ""
        self.transition(record, JobState.SUBMITTED,
                        reason="dead-letter retry")
        return record

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def request_cancel(self, job_id: str) -> CloneJobRecord:
        """Ask for ``job_id`` to stop; returns the (possibly updated) record.

        A job that has not started (``submitted``, no lease) cancels
        immediately. A running job gets a marker the worker observes at
        its next phase boundary; terminal jobs are left untouched.
        """
        record = self.get(job_id)
        if record.terminal:
            return record
        if record.state is JobState.SUBMITTED \
                and self.claim_lease(job_id):
            try:
                self.transition(record, JobState.CANCELLED,
                                reason="cancelled before start")
                record.error = "cancelled before start"
                self.save(record)
            finally:
                self.release_lease(job_id)
            return record
        with open(self.cancel_path(job_id), "w", encoding="utf-8") as handle:
            handle.write(f"{time.time()}\n")
        self._emit("cancel_requested", job_id=job_id,
                   state=record.state.value)
        return record

    def cancel_requested(self, job_id: str) -> bool:
        return os.path.exists(self.cancel_path(job_id))

    # ------------------------------------------------------------------ #
    # profiles (keyed by spec digest — cross-job reuse)
    # ------------------------------------------------------------------ #
    def save_profile(self, spec_digest: str,
                     profile: ApplicationProfile) -> None:
        """Persist a profiling session for every job sharing this spec.

        Called after :meth:`load_profile` missed, so whatever is at the
        path (nothing, or a profile of an older layout) is replaced.
        """
        integrity.save_object(self.profile_path(spec_digest), profile,
                              schema=PROFILE_SCHEMA,
                              version=PROFILE_VERSION)

    def load_profile(self, spec_digest: str) -> Optional[ApplicationProfile]:
        """A stored profile for this spec, or None (miss/corruption/an
        older layout)."""
        try:
            profile = integrity.load_exact(self.profile_path(spec_digest),
                                           schema=PROFILE_SCHEMA,
                                           version=PROFILE_VERSION)
        except (FileNotFoundError, ArtifactIntegrityError):
            return None
        self._counters["profile_reuse"].inc()
        self._emit("profile_reused", digest=spec_digest[:32])
        return profile

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def save_result(self, result: JobResult) -> None:
        """Persist a published clone + its FidelityReport JSON artifact.

        Gated results additionally feed the drift monitor: one line in
        the spec's fidelity history and a refresh of the
        ``ditto_fidelity_error{metric,platform}`` gauges.
        """
        integrity.save_object(self.result_path(result.job_id), result,
                              schema=RESULT_SCHEMA, version=SCHEMA_VERSION)
        if result.fidelity is not None:
            document = integrity.stamp_json({
                "format": "ditto-fleet-fidelity/1",
                "job_id": result.job_id,
                "report": result.fidelity,
            })
            scratch = f"{self.fidelity_path(result.job_id)}.tmp-{os.getpid()}"
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
            os.replace(scratch, self.fidelity_path(result.job_id))
            if result.spec_digest:
                self._append_fidelity_history(result)
            self._record_fidelity_gauges(result.fidelity)
        self._emit("result_published", job_id=result.job_id,
                   result_digest=result.result_digest,
                   gated=result.fidelity is not None,
                   fidelity_passed=bool((result.fidelity or {})
                                        .get("passed", True)),
                   remediation=len(result.remediation))

    def _append_fidelity_history(self, result: JobResult) -> None:
        """One O_APPEND line per published gated job (crash-tolerant,
        same single-``write(2)`` discipline as the flight log)."""
        report: Dict = result.fidelity or {}
        entry = {
            "job_id": result.job_id,
            "at": time.time(),
            "label": report.get("label", ""),
            "platform": report.get("platform", ""),
            "mode": report.get("mode", ""),
            "passed": report.get("passed", True),
            "mean_error": report.get("mean_error", 0.0),
            "checks": report.get("checks", []),
        }
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        fd = os.open(self.fidelity_history_path(result.spec_digest),
                     os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _record_fidelity_gauges(self, report: dict) -> None:
        platform = report.get("platform", "") or "?"
        for check in report.get("checks", []):
            error = check.get("error", 0.0)
            if error == "inf" or not math.isfinite(float(error)):
                continue  # exposition format cannot carry inf usefully
            self._fidelity_error.set(float(error),
                                     metric=check.get("metric", ""),
                                     platform=platform)

    def result(self, job_id: str) -> JobResult:
        """Load a published job's result (raises when absent/corrupt)."""
        return integrity.load_object(self.result_path(job_id),
                                     schema=RESULT_SCHEMA,
                                     max_version=SCHEMA_VERSION)

    def fidelity_history(self, spec_digest: Optional[str] = None,
                         ) -> Dict[str, List[dict]]:
        """Parsed drift histories, ``{digest: [entry, ...]}``."""
        from repro.fleet.obs.drift import load_fidelity_history
        return load_fidelity_history(self.fidelity_dir, spec_digest)
