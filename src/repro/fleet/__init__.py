"""Fleet-scale cloning control plane.

Ditto frames cloning as a repeatable workflow — profile → generate →
tune → validate. This package runs that workflow as a *service*: many
jobs, one persistent digest-keyed store, a scheduler sharding jobs
across a worker pool, and a CLI (``python -m repro.fleet``) to submit,
watch, list and cancel.

- :class:`~repro.fleet.job.CloneJobSpec` /
  :class:`~repro.fleet.job.CloneJobRecord` — the one job model: a
  :class:`~repro.core.request.CloneRequest` or a cross-environment
  :class:`~repro.migrate.request.MigrationRequest` plus scheduling
  metadata, and its durable lifecycle record. Both kinds travel the
  same states through the same worker path (``python -m
  repro.migrate --store DIR`` queues a migration);
- :class:`~repro.fleet.store.JobStore` — atomic, integrity-enveloped
  persistence with leases, cancel markers, shared profiles and the
  fleet-wide experiment cache;
- :class:`~repro.fleet.scheduler.FleetScheduler` — process/thread/
  serial fan-out with the tier pipeline's degradation ladder;
- :class:`~repro.fleet.client.FleetClient` — the user-facing handle;
- :mod:`repro.fleet.chaos` — seeded crashpoint injection
  (:class:`~repro.fleet.chaos.ChaosPlan`) for chaos-testing the
  control plane's crash recovery;
- :mod:`repro.fleet.obs` — the observability surface: flight recorder,
  live ``/metrics``/``/jobs`` endpoint, fidelity-drift monitor and the
  ``top`` dashboard.

See DESIGN.md ("Fleet job state machine" and "Flight recorder & drift
monitoring") for the lifecycle diagram and the event log's guarantees.
"""

from repro.fleet.chaos import (
    CRASHPOINTS,
    ChaosAction,
    ChaosKill,
    ChaosPlan,
)
from repro.fleet.client import FleetClient
from repro.fleet.job import (
    CloneJobRecord,
    CloneJobSpec,
    JobResult,
    JobState,
    TransitionRecord,
)
from repro.fleet.obs import (
    FleetStatusServer,
    FlightRecorder,
    read_flight_log,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.store import JobStore
from repro.fleet.worker import JobWorkerOutcome, execute_job

__all__ = [
    "CRASHPOINTS",
    "ChaosAction",
    "ChaosKill",
    "ChaosPlan",
    "CloneJobRecord",
    "CloneJobSpec",
    "FleetClient",
    "FleetScheduler",
    "FleetStatusServer",
    "FlightRecorder",
    "JobResult",
    "JobState",
    "JobStore",
    "JobWorkerOutcome",
    "TransitionRecord",
    "execute_job",
    "read_flight_log",
]
