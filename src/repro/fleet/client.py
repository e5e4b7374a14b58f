"""The fleet's user-facing handle: submit, watch, cancel, collect.

A :class:`FleetClient` wraps one :class:`~repro.fleet.store.JobStore`
root. Because all coordination lives in the store (records, leases,
cancel markers), the client works the same whether the scheduler runs
in this process (:meth:`run_until_idle`), in another process on the
same host (``python -m repro.fleet run``), or not at all yet — jobs
queue until one shows up.

>>> client = FleetClient("/tmp/fleet")
>>> record = client.submit(request, name="memcached-a")
>>> client.run_until_idle()                      # doctest: +SKIP
>>> client.get(record.job_id).state
<JobState.PUBLISHED: 'published'>
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Union

from repro.core.request import CloneRequest
from repro.fleet.job import (
    CloneJobRecord,
    CloneJobSpec,
    JobResult,
    JobState,
)
from repro.fleet.store import JobStore
from repro.migrate.request import MigrationRequest

__all__ = ["FleetClient"]


class FleetClient:
    """Submit and track clone jobs against one store root."""

    def __init__(self, store: Union[JobStore, str]) -> None:
        self.store = store if isinstance(store, JobStore) else JobStore(store)

    def submit(self, request: Union[CloneRequest, MigrationRequest,
                                    CloneJobSpec], *,
               name: str = "", priority: int = 0,
               max_crashes: Optional[int] = None) -> CloneJobRecord:
        """Queue one clone or migration job; returns its record."""
        spec = (request if isinstance(request, CloneJobSpec)
                else CloneJobSpec(request=request, name=name,
                                  priority=priority,
                                  max_crashes=max_crashes))
        return self.store.submit(spec)

    def get(self, job_id: str) -> CloneJobRecord:
        return self.store.get(job_id)

    def list(self, states: Optional[Iterable[JobState]] = None,
             ) -> List[CloneJobRecord]:
        return self.store.list(states)

    def cancel(self, job_id: str) -> CloneJobRecord:
        """Cancel a job (immediately when queued, at the next phase
        boundary when running); terminal jobs are untouched."""
        return self.store.request_cancel(job_id)

    def result(self, job_id: str) -> JobResult:
        """A published job's clone + fidelity document."""
        return self.store.result(job_id)

    def retire(self, job_id: str) -> CloneJobRecord:
        """Mark a published clone as superseded."""
        record = self.store.get(job_id)
        self.store.transition(record, JobState.RETIRED, reason="retired")
        return record

    def dead_letters(self) -> List[CloneJobRecord]:
        """Jobs that exhausted their crash budget (the DLQ)."""
        return self.store.list((JobState.DEAD_LETTERED,))

    def retry_dead_letter(self, job_id: str) -> CloneJobRecord:
        """Requeue a dead-lettered job with a fresh crash budget."""
        return self.store.retry_dead_letter(job_id)

    def run_until_idle(self, *, executor: str = "auto",
                       max_workers: Optional[int] = None,
                       telemetry=None) -> list:
        """Run an in-process scheduler until the queue drains."""
        from repro.fleet.scheduler import FleetScheduler
        scheduler = FleetScheduler(self.store, executor=executor,
                                   max_workers=max_workers,
                                   telemetry=telemetry)
        return scheduler.run_until_idle()

    def flight_log(self):
        """The store's parsed flight log (empty when never enabled)."""
        from repro.fleet.obs.flight import read_flight_log
        return read_flight_log(self.store.flight_path)

    def drift_report(self, **kwargs):
        """Fidelity-drift verdicts over the store's gated history."""
        from repro.fleet.obs.drift import analyze_drift
        return analyze_drift(self.store.fidelity_history(), **kwargs)

    def watch(self, job_id: str, *, timeout_s: float = 300.0,
              poll_s: float = 0.2) -> CloneJobRecord:
        """Poll until ``job_id`` reaches a terminal state (or time out).

        Returns the final record; raises :class:`TimeoutError` when the
        deadline passes first (the job keeps running — watching is
        read-only).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            record = self.store.get(job_id)
            if record.terminal:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.state} after "
                    f"{timeout_s:.0f}s")
            time.sleep(poll_s)
