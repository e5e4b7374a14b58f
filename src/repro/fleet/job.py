"""Fleet job model: specs, records, and the lifecycle state machine.

Every job — a clone (:class:`~repro.core.request.CloneRequest`) or a
migration (:class:`~repro.migrate.request.MigrationRequest`) — travels
``submitted → profiling → tuning → validating → published``. A
migration's preflight runs as ``profiling``, its warm re-tune as
``tuning`` and its destination gate as ``validating``. Failure paths
map the error surface onto explicit states rather than stack traces:

- a cancel marker (observed at the next phase boundary) → ``cancelled``;
- :class:`~repro.util.errors.FidelityGateError` after the remediation
  ladder is exhausted, a :class:`~repro.util.errors.MigrationError`
  refusal, or any other :class:`Exception` → ``failed``;
- a crashed worker (process killed, machine lost) leaves the record in
  its running state with a dead lease — recovery requeues it to
  ``submitted`` (after an exponential crash backoff) and the next run
  resumes from its tier checkpoints;
- a job that keeps crashing its worker exhausts its crash budget
  (``max_crashes``) and lands in ``dead_lettered`` — terminal until an
  operator requeues it with ``fleet dlq retry``.

Remediation rungs (re-seed, widened tune budget, degraded executor)
show up as ``validating → tuning`` self-healing transitions, so the
:class:`~repro.validation.remediate.RemediationPolicy` ladder is
visible in the job history instead of buried inside one opaque
``clone()`` call. ``published`` jobs can only be ``retired``;
``failed`` jobs can be resubmitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from repro.app.service import Deployment
from repro.core.request import CloneRequest
from repro.migrate.request import MigrationRequest
from repro.runtime.expcache import CacheStats
from repro.util.errors import ConfigurationError, JobStateError

__all__ = [
    "CloneJobRecord",
    "CloneJobSpec",
    "JobResult",
    "JobState",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "TransitionRecord",
]


class JobState(str, Enum):
    """Where a fleet job is in its lifecycle."""

    SUBMITTED = "submitted"
    PROFILING = "profiling"
    TUNING = "tuning"
    VALIDATING = "validating"
    PUBLISHED = "published"
    FAILED = "failed"
    CANCELLED = "cancelled"
    RETIRED = "retired"
    DEAD_LETTERED = "dead_lettered"

    def __str__(self) -> str:  # "published", not "JobState.PUBLISHED"
        return self.value

    @classmethod
    def _missing_(cls, value):
        # Records written while migrations had states of their own
        # load in the generic state each one ran as.
        return (cls(_LEGACY_STATES[value]) if value in _LEGACY_STATES
                else None)


_LEGACY_STATES = {"migrating_preflight": "profiling",
                  "migrating_retune": "tuning",
                  "migrating_gate": "validating"}


#: legal (from → to) edges. ``tuning → tuning`` is a watchdog-budget
#: remediation retry, ``validating → tuning`` a gate-failure rung, and
#: ``running state → submitted`` the crash-recovery requeue.
TRANSITIONS: Dict[JobState, Tuple[JobState, ...]] = {
    JobState.SUBMITTED: (JobState.PROFILING, JobState.TUNING,
                         JobState.CANCELLED, JobState.FAILED,
                         JobState.DEAD_LETTERED),
    JobState.PROFILING: (JobState.TUNING, JobState.CANCELLED,
                         JobState.FAILED, JobState.SUBMITTED,
                         JobState.DEAD_LETTERED),
    JobState.TUNING: (JobState.VALIDATING, JobState.PUBLISHED,
                      JobState.TUNING, JobState.CANCELLED,
                      JobState.FAILED, JobState.SUBMITTED,
                      JobState.DEAD_LETTERED),
    JobState.VALIDATING: (JobState.PUBLISHED, JobState.TUNING,
                          JobState.CANCELLED, JobState.FAILED,
                          JobState.SUBMITTED, JobState.DEAD_LETTERED),
    JobState.PUBLISHED: (JobState.RETIRED,),
    JobState.FAILED: (JobState.SUBMITTED,),
    JobState.CANCELLED: (),
    JobState.RETIRED: (),
    JobState.DEAD_LETTERED: (JobState.SUBMITTED,),
}

#: states a job never leaves on its own (``failed`` jobs additionally
#: accept an explicit resubmit; ``dead_lettered`` an explicit
#: ``dlq retry``)
TERMINAL_STATES = (JobState.PUBLISHED, JobState.FAILED,
                   JobState.CANCELLED, JobState.RETIRED,
                   JobState.DEAD_LETTERED)

#: states that mean "a worker owns this job right now"
RUNNING_STATES = (JobState.PROFILING, JobState.TUNING,
                  JobState.VALIDATING)


@dataclass(frozen=True)
class TransitionRecord:
    """One edge a job took through the state machine (audit trail)."""

    from_state: JobState
    to_state: JobState
    reason: str = ""
    at: float = 0.0


@dataclass(frozen=True, kw_only=True)
class CloneJobSpec:
    """What one fleet job should do (frozen, picklable).

    The request — a :class:`~repro.core.request.CloneRequest` or a
    :class:`~repro.migrate.request.MigrationRequest`, which also picks
    the work the worker runs — carries every output-affecting knob;
    ``name`` and ``priority`` are scheduling metadata only, so two jobs
    with the same request share a spec digest — and therefore profiles
    and shared-cache entries — no matter what they are called.
    """

    request: Union[CloneRequest, MigrationRequest]
    name: str = ""
    #: higher runs first; ties break by submission order
    priority: int = 0
    #: per-job crash budget before dead-lettering (None = the store's
    #: default); scheduling metadata, excluded from the spec digest
    max_crashes: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.request, (CloneRequest, MigrationRequest)):
            raise ConfigurationError(
                f"request must be a CloneRequest or a MigrationRequest, "
                f"got {self.request!r}")
        if not isinstance(self.priority, int) \
                or isinstance(self.priority, bool):
            raise ConfigurationError(
                f"priority must be an int, got {self.priority!r}")
        if self.max_crashes is not None and (
                not isinstance(self.max_crashes, int)
                or isinstance(self.max_crashes, bool)
                or self.max_crashes < 0):
            raise ConfigurationError(
                f"max_crashes must be an int >= 0 or None, "
                f"got {self.max_crashes!r}")

    def __setstate__(self, state: dict) -> None:
        # Records pickled before the crash-budget fields existed
        # deserialize with the defaults backfilled.
        self.__dict__.update({"max_crashes": None})
        self.__dict__.update(state)

    def digest(self) -> str:
        """The experiment identity (= the request digest)."""
        return self.request.digest()

    def describe(self) -> str:
        label = self.name or (
            self.request.destination.name
            if isinstance(self.request, MigrationRequest)
            else self.request.deployment.entry_service)
        return f"{label}: {self.request.describe()}"


#: records pickled when migrations had a spec class of their own load
#: as a :class:`CloneJobSpec`
MigrationJobSpec = CloneJobSpec


@dataclass
class CloneJobRecord:
    """One job's durable state (what the job store persists)."""

    job_id: str
    spec: CloneJobSpec
    spec_digest: str
    state: JobState = JobState.SUBMITTED
    history: List[TransitionRecord] = field(default_factory=list)
    #: remediation rungs climbed so far (across resumes)
    attempts: int = 0
    #: human-readable failure/cancel explanation ("" while healthy)
    error: str = ""
    #: stable digest of the published clone (set on ``published``)
    result_digest: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0
    #: crash requeues survived so far (persisted across recoveries;
    #: past ``max_crashes`` the job is dead-lettered)
    crash_count: int = 0
    #: wall-clock gate the scheduler honours after a crash requeue
    #: (exponential backoff; 0 = runnable immediately)
    next_attempt_at: float = 0.0

    def __setstate__(self, state: dict) -> None:
        # Backfill crash-tracking fields for records persisted before
        # they existed, so an old store survives an upgrade.
        self.__dict__.update({"crash_count": 0, "next_attempt_at": 0.0})
        self.__dict__.update(state)

    def transition(self, to_state: JobState, *, reason: str = "") -> None:
        """Take one edge; raises :class:`JobStateError` on illegal moves."""
        if to_state not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state} → {to_state}"
                + (f" ({reason})" if reason else ""))
        now = time.time()
        self.history.append(TransitionRecord(
            from_state=self.state, to_state=to_state, reason=reason,
            at=now))
        self.state = to_state
        self.updated_at = now

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def running(self) -> bool:
        return self.state in RUNNING_STATES

    def describe(self) -> str:
        suffix = f" [{self.error}]" if self.error else ""
        return (f"{self.job_id}  {self.state.value:<10}  "
                f"{self.spec.describe()}{suffix}")


@dataclass
class JobResult:
    """What a ``published`` job produced (picklable store payload)."""

    job_id: str
    synthetic: Deployment
    #: the spec digest the job ran under (keys the fidelity-drift
    #: history: successive jobs of one spec share a series)
    spec_digest: str = ""
    #: :meth:`FidelityReport.to_dict` of the accepted clone (None when
    #: the job ran ungated)
    fidelity: Optional[dict] = None
    #: remediation reasons climbed before acceptance
    remediation: List[str] = field(default_factory=list)
    #: executor mode the per-tier pipeline resolved to
    executor: str = "serial"
    #: experiment-cache counters aggregated across the job's tiers
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: stable digest over (synthetic deployment, tuned knobs)
    result_digest: str = ""
    #: per-tier tuning iterations actually spent
    tuning_iterations: Dict[str, int] = field(default_factory=dict)
