"""The fleet scheduler: shard submitted jobs across a worker pool.

Jobs fan out across a process pool like tiers do inside one clone, with
the same executor modes (``process``/``serial``/``auto``): a pool that
breaks mid-run (a worker killed) falls back to serial once and re-runs
there every claimed job that did not finish. Ownership is tracked with
store leases (claimed before dispatch, released afterwards — on *any*
exit, including a crash unwinding through the scheduler), each claim
carrying a fencing epoch the workers heartbeat and re-check, so a job
whose owner truly died is requeued by
:meth:`~repro.fleet.store.JobStore.recover` at the top of every round
while a zombie owner can no longer publish. Jobs requeued after a
crash are honoured only once their exponential backoff
(``next_attempt_at``) has elapsed.

Priority: higher ``CloneJobSpec.priority`` first, ties broken by
submission time. Worker telemetry payloads are absorbed into the
scheduler's session when one is given, so one registry shows the whole
fleet (including each job's shared-cache hits).

**Graceful drain**: while ``run_until_idle`` runs on the main thread,
SIGTERM/SIGINT request a drain — no new rounds or jobs are claimed,
in-flight jobs finish, unstarted ones stay ``submitted``, and every
lease is released on the way out. A second signal is a hard stop:
pending pool futures are cancelled and the scheduler stops waiting
(still-running workers are fenced off by the next claim's epoch).
Previous signal dispositions are restored when the drain completes.
The scheduler is also a context manager — ``with FleetScheduler(...)
as s: s.run_until_idle()`` guarantees :meth:`close` (and with it the
status endpoint's socket) even when the run raises.

``serve_metrics=`` starts a :class:`~repro.fleet.obs.httpd.
FleetStatusServer` for the store — ``/metrics``, ``/jobs`` and
``/healthz`` stay live while the fleet drains (and after, until
:meth:`FleetScheduler.close`). ``chaos=`` installs a
:class:`~repro.fleet.chaos.ChaosPlan` for the duration of
``run_until_idle`` and forwards it to pool workers.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Dict, List, Optional, Set, Union

from repro.core.pipeline import resolve_executor
from repro.fleet.chaos import ChaosPlan, crashpoint, maybe_active
from repro.fleet.job import JobState
from repro.fleet.obs.httpd import FleetStatusServer, parse_serve_address
from repro.fleet.store import JobStore
from repro.fleet.worker import JobWorkerOutcome, execute_job
from repro.telemetry.session import Telemetry
from repro.util.errors import ConfigurationError

__all__ = ["FleetScheduler"]


class FleetScheduler:
    """Drain a job store's submitted queue through a worker pool."""

    def __init__(
        self,
        store: Union[JobStore, str],
        *,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        telemetry: Union[bool, Telemetry, None] = None,
        serve_metrics: Union[bool, int, str, None] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> None:
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.executor = executor
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = max_workers
        if telemetry is True:
            telemetry = Telemetry(label="fleet")
        elif telemetry is False:
            telemetry = None
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            raise ConfigurationError(
                f"telemetry must be a Telemetry session or a bool, "
                f"got {telemetry!r}")
        self.telemetry = telemetry
        if chaos is not None and not isinstance(chaos, ChaosPlan):
            raise ConfigurationError(
                f"chaos must be a ChaosPlan, got {chaos!r}")
        self.chaos = chaos
        self._drain = threading.Event()
        self._abort = threading.Event()
        self._completed = self.store.registry.counter(
            "ditto_fleet_jobs_completed_total",
            "fleet jobs that reached a terminal state", ("state",))
        #: live status endpoint (None unless ``serve_metrics`` asked)
        self.status_server: Optional[FleetStatusServer] = None
        if parse_serve_address(serve_metrics) is not None:
            registries = ((self.telemetry.registry,)
                          if self.telemetry is not None else ())
            self.status_server = FleetStatusServer(
                self.store, registries=registries, address=serve_metrics)

    def close(self) -> None:
        """Stop the status endpoint, if one is serving (idempotent)."""
        if self.status_server is not None:
            self.status_server.close()
            self.status_server = None

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # graceful drain
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    def request_drain(self, *, hard: bool = False) -> None:
        """Stop claiming work; in-flight jobs finish (``hard=True``
        also stops waiting: pending pool futures are cancelled)."""
        if hard:
            self._abort.set()
        if not self._drain.is_set():
            self._drain.set()
            self.store._emit("drain_requested", hard=hard)
            self.store.registry.counter(
                "ditto_fleet_drains_total",
                "graceful-drain requests observed by the scheduler",
                ()).inc()

    def _handle_signal(self, signum, frame) -> None:
        # First signal: drain. Second: hard stop.
        self.request_drain(hard=self._drain.is_set())

    def _install_signal_handlers(self) -> Dict[int, object]:
        if threading.current_thread() is not threading.main_thread():
            return {}  # signal.signal only works on the main thread
        restore: Dict[int, object] = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                restore[signum] = signal.signal(signum,
                                                self._handle_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return restore

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run_until_idle(self) -> List[JobWorkerOutcome]:
        """Run rounds until no submitted job remains; returns outcomes.

        Each round: requeue crash-orphaned jobs, resolve cancellations
        that arrived before dispatch, claim leases on the runnable
        queue (skipping crash backoffs that have not elapsed), and
        drain it through the pool. New submissions landing between
        rounds are picked up by the next round; a drain request ends
        the loop after the current round.
        """
        outcomes: List[JobWorkerOutcome] = []
        restore = self._install_signal_handlers()
        if self.telemetry is not None:
            self.telemetry.activate()
        try:
            with maybe_active(self.chaos):
                while True:
                    batch = self._run_round()
                    if batch is None:
                        break
                    outcomes.extend(batch)
                    if self._drain.is_set():
                        break
        finally:
            if self.telemetry is not None:
                self.telemetry.deactivate()
            for signum, previous in restore.items():
                signal.signal(signum, previous)
        return outcomes

    # ------------------------------------------------------------------ #
    # one round
    # ------------------------------------------------------------------ #
    def _run_round(self) -> Optional[List[JobWorkerOutcome]]:
        """One claim-and-drain cycle; None when the queue is empty."""
        if self._drain.is_set():
            return None
        self.store.recover()
        now = time.time()
        runnable, backing_off = [], []
        for record in self.store.list((JobState.SUBMITTED,)):
            if self.store.cancel_requested(record.job_id):
                self._cancel_before_start(record)
                continue
            if record.next_attempt_at > now:
                backing_off.append(record)
                continue
            runnable.append(record)
        if not runnable:
            if backing_off and not self._drain.is_set():
                # Wait out the earliest crash backoff (in small slices
                # so drain signals stay responsive), then go again.
                delay = (min(r.next_attempt_at for r in backing_off)
                         - time.time())
                if delay > 0:
                    time.sleep(min(delay, 0.2))
                return []
            return None
        runnable.sort(key=lambda r: (-r.spec.priority, r.created_at,
                                     r.job_id))
        crashpoint("scheduler.round.pre_claim")
        claims: Dict[str, int] = {}
        for record in runnable:
            epoch = self.store.claim_lease(record.job_id)
            if epoch is not None:
                claims[record.job_id] = epoch
        if not claims:
            return None  # another scheduler owns the whole queue
        crashpoint("scheduler.round.post_claim")
        try:
            outcomes = self._run_batch(claims)
        finally:
            # Leases must die with this invocation — even when a crash
            # (KeyboardInterrupt, a kill unwinding through a pool) is
            # propagating — so recovery sees orphaned jobs, not
            # zombies. Epoch-checked: a newer claim minted after a
            # false requeue is never clobbered.
            for job_id, epoch in claims.items():
                self.store.release_lease(job_id, epoch=epoch)
        for outcome in outcomes:
            if self.telemetry is not None:
                self.telemetry.absorb(outcome.telemetry)
            if outcome.fenced:
                continue  # the job belongs to a newer claim now
            self._completed.inc(1, state=outcome.state.value)
        return outcomes

    def _cancel_before_start(self, record) -> None:
        epoch = self.store.claim_lease(record.job_id)
        if epoch is None:
            return
        try:
            self.store.transition(record, JobState.CANCELLED,
                                  reason="cancelled before start")
            record.error = "cancelled before start"
            self.store.save(record)
        finally:
            self.store.release_lease(record.job_id, epoch=epoch)

    # ------------------------------------------------------------------ #
    # batch execution (process pool, serial fallback)
    # ------------------------------------------------------------------ #
    def _run_batch(self, claims: Dict[str, int]
                   ) -> List[JobWorkerOutcome]:
        job_ids = list(claims)
        mode = resolve_executor(self.executor, n_tasks=len(job_ids),
                                max_workers=self.max_workers)
        outcomes: List[JobWorkerOutcome] = []
        if mode == "process" and not self._drain.is_set():
            workers = (self.max_workers if self.max_workers is not None
                       else (os.cpu_count() or 1))
            workers = max(1, min(workers, len(job_ids)))
            finished: Set[str] = set()
            try:
                self._run_pool(workers, job_ids, claims, finished, outcomes)
                return outcomes
            except BrokenExecutor:
                self._count_degradation()
                job_ids = [job_id for job_id in job_ids
                           if job_id not in finished]
        for job_id in job_ids:
            if self._drain.is_set():
                break  # unstarted claims release; records stay queued
            outcomes.append(self._run_one(job_id, claims[job_id]))
        return outcomes

    def _run_one(self, job_id: str, epoch: int) -> JobWorkerOutcome:
        return execute_job(self.store.root, job_id,
                           collect_telemetry=self.telemetry is not None,
                           epoch=epoch, chaos=self.chaos)

    def _run_pool(self, workers: int, job_ids: List[str],
                  claims: Dict[str, int], finished: Set[str],
                  outcomes: List[JobWorkerOutcome]) -> None:
        """Drain ``job_ids`` through one process pool into ``outcomes``;
        BrokenExecutor escapes.

        ``finished`` accrues a job id once its future has returned an
        outcome (or failed out of band) or has been cancelled by a
        drain, so the serial fallback re-runs exactly the claimed jobs
        that did not finish.
        """
        collect = self.telemetry is not None
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            active = {pool.submit(execute_job, self.store.root, job_id,
                                  collect, epoch=claims[job_id],
                                  chaos=self.chaos): job_id
                      for job_id in job_ids}
            while active:
                done, _ = wait(set(active),
                               return_when=FIRST_COMPLETED, timeout=0.2)
                for future in done:
                    job_id = active.pop(future)
                    try:
                        outcomes.append(future.result())
                    except BrokenExecutor:
                        raise
                    except Exception as error:  # noqa: BLE001
                        # execute_job converts ordinary failures into
                        # job state itself; reaching here means the
                        # worker blew up outside that boundary (e.g. an
                        # unpicklable payload). Fail the job explicitly
                        # rather than leaving it running forever.
                        outcomes.append(self._fail_out_of_band(
                            job_id, error))
                    finished.add(job_id)
                if self._drain.is_set() and active:
                    # Drain: in-flight futures run to completion,
                    # unstarted ones are cancelled (their jobs stay
                    # submitted and their leases release upstream).
                    for future in list(active):
                        if future.cancel():
                            finished.add(active.pop(future))
                if self._abort.is_set():
                    break  # hard stop: give up on running futures too
        finally:
            pool.shutdown(wait=not self._abort.is_set(),
                          cancel_futures=True)

    def _fail_out_of_band(self, job_id: str,
                          error: Exception) -> JobWorkerOutcome:
        record = self.store.get(job_id)
        message = f"worker error: {type(error).__name__}: {error}"
        if not record.terminal:
            # Persist the message *before* the FAILED edge so show,
            # /jobs and the flight log all carry it.
            record.error = message
            if record.running:
                self.store.transition(record, JobState.SUBMITTED,
                                      reason="worker error")
            self.store.transition(record, JobState.FAILED,
                                  reason=message[:160])
        return JobWorkerOutcome(job_id=job_id, state=record.state,
                                error=message)

    def _count_degradation(self) -> None:
        self.store.registry.counter(
            "ditto_fleet_scheduler_degradations_total",
            "fleet pool degradations after a broken worker pool",
            ("from_mode", "to_mode"),
        ).inc(1, from_mode="process", to_mode="serial")
        self.store._emit("pool_degraded", from_mode="process",
                         to_mode="serial")
