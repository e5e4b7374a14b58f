"""Parallel per-tier cloning pipeline.

Once profiling has produced per-service artifacts and RPCs have been
stripped for stand-alone tuning, Ditto's Fig. 3 pipeline is
embarrassingly parallel across tiers (§4.5: each tier's knobs calibrate
independently). This module fans the per-tier stage — feature
extraction → fine-tune → body/skeleton generation — out across a
:mod:`concurrent.futures` executor.

Determinism: a tier's outcome is a pure function of its
:class:`TierTask` payload. Every random stream a tier consumes is
derived from the task's own seeds via the named-stream discipline in
:mod:`repro.util.rng` (see :func:`derive_tier_seed`), never from shared
mutable state, so serial and process-pool runs produce bit-identical
clones and execution order cannot leak between tiers.

Executor selection: ``"process"`` (a :class:`ProcessPoolExecutor`, the
default on multi-core hosts), ``"serial"`` (plain loop, also the
single-core/single-tier fallback), or ``"auto"`` (process pool whenever
it can actually help: more than one tier and more than one CPU). There
is no thread mode: the tier stage is pure Python, so threads only
serialise on the interpreter lock.

Robustness: a tier that raises is retried up to ``tier_retries`` times
before the pipeline gives up with a
:class:`~repro.util.errors.TierExecutionError` naming the tier and
carrying every sibling outcome completed so far. A broken worker pool
(a worker killed mid-task) falls back to serial once and re-runs only
the unfinished tiers there. With ``checkpoint_dir`` set, each finished
:class:`TierOutcome` is pickled under a key derived from the task's
:func:`~repro.util.spec_hash.stable_digest`, so a killed pipeline
resumes without re-running completed tiers (and a
*changed* task never matches a stale checkpoint).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
    FIRST_COMPLETED,
)
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.app.service import ServiceSpec
from repro.core.body_gen import GeneratorConfig, generate_program
from repro.core.features import ServiceFeatures, extract_service_features
from repro.core.finetune import (
    DEFAULT_MAX_TUNE_ITERATIONS,
    FineTuneResult,
    fine_tune,
)
from repro.core.skeleton_gen import generate_skeleton
from repro.profiling.artifacts import ServiceArtifacts
from repro.runtime.expcache import (
    DEFAULT_CACHE_ENTRIES,
    CacheStats,
    ExperimentCache,
    SharedExperimentCache,
)
from repro.runtime.experiment import ExperimentConfig
from repro.telemetry.context import current_session
from repro.telemetry.session import Telemetry, WorkerTelemetry
from repro.telemetry.spans import span
from repro.util.errors import ArtifactIntegrityError, ConfigurationError, \
    TierExecutionError
from repro.util.rng import derive_seed
from repro.util.spec_hash import stable_digest
from repro.validation import integrity

__all__ = [
    "EXECUTOR_MODES",
    "TierCheckpoint",
    "TierOutcome",
    "TierTask",
    "clone_tier",
    "derive_tier_seed",
    "resolve_executor",
    "run_tier_pipeline",
]

EXECUTOR_MODES = ("auto", "process", "serial")


def derive_tier_seed(root_seed: int, tier: str, stage: str) -> int:
    """The seed one tier's ``stage`` uses, derived from the clone seed.

    Stable across runs/platforms and independent per (tier, stage), so a
    tier draws the same streams no matter which worker runs it, in which
    order, or alongside which siblings.
    """
    return derive_seed(root_seed, "pipeline", tier, stage)


@dataclass(frozen=True)
class TierTask:
    """Everything one tier's pipeline stage needs (picklable payload)."""

    artifacts: ServiceArtifacts
    generator_config: GeneratorConfig
    #: stand-alone tuning platform; ``None`` skips fine-tuning
    tune_config: Optional[ExperimentConfig] = None
    max_tune_iterations: int = DEFAULT_MAX_TUNE_ITERATIONS
    cache_max_entries: int = DEFAULT_CACHE_ENTRIES
    #: record spans/metrics for this tier (set when the clone session
    #: carries a :class:`~repro.telemetry.session.Telemetry`); workers
    #: cannot see the parent's session, so the request must travel in
    #: the task payload
    collect_telemetry: bool = False
    #: directory of a fleet-wide digest-keyed experiment store (see
    #: :class:`~repro.runtime.expcache.SharedExperimentCache`); ``None``
    #: keeps the historical private in-memory cache. Results are
    #: bit-identical either way — the store only changes *where* a
    #: memoized measurement is found.
    shared_cache_dir: Optional[str] = None


@dataclass
class TierOutcome:
    """What one tier's pipeline stage produced."""

    service: str
    features: ServiceFeatures
    spec: ServiceSpec
    tuning: Optional[FineTuneResult]
    wall_clock_s: float
    cache_stats: CacheStats
    #: spans + metrics recorded by a worker-local session, for the
    #: parent to absorb; None when telemetry was off or the tier ran
    #: under the parent's own session (serial mode)
    telemetry: Optional[WorkerTelemetry] = None


def clone_tier(task: TierTask) -> TierOutcome:
    """Run one tier through feature extraction → fine-tune → generation.

    Pure function of ``task``; safe to run in any executor worker.
    Telemetry observes but never steers: every random stream is derived
    from the task's seeds, so outcomes are bit-identical with
    ``collect_telemetry`` on or off.
    """
    worker_session: Optional[Telemetry] = None
    ambient = current_session()
    foreign = ambient is None or ambient.pid != os.getpid()
    if task.collect_telemetry and foreign:
        # Running in an executor worker process: collect into a local
        # session and ship it back with the outcome. The pid check
        # matters on fork-start pools, where the child inherits the
        # parent's ambient session but anything recorded into that copy
        # would be lost. Serial mode sees the parent's own session and
        # records straight into it.
        worker_session = Telemetry.for_worker()
        worker_session.activate()
    try:
        outcome = _clone_tier(task)
    finally:
        if worker_session is not None:
            worker_session.deactivate()
    if worker_session is not None:
        outcome.telemetry = worker_session.payload()
    return outcome


def _clone_tier(task: TierTask) -> TierOutcome:
    service = task.artifacts.service
    started = time.perf_counter()
    with span(f"tier:{service}", category="tier"):
        with span("feature_extraction", category="tier", service=service):
            features = extract_service_features(task.artifacts)
        config = task.generator_config
        if task.shared_cache_dir is not None:
            cache: ExperimentCache = SharedExperimentCache(
                task.shared_cache_dir, max_entries=task.cache_max_entries,
                name=service)
        else:
            cache = ExperimentCache(max_entries=task.cache_max_entries,
                                    name=service)
        tuning: Optional[FineTuneResult] = None
        if task.tune_config is not None:
            with span("fine_tune", category="tier", service=service):
                tuning = fine_tune(
                    features,
                    platform_config=task.tune_config,
                    base_config=config,
                    max_iterations=task.max_tune_iterations,
                    cache=cache,
                )
            config = replace(config, knobs=tuning.knobs)
        with span("generation", category="tier", service=service):
            program, files = generate_program(features, config)
            skeleton = generate_skeleton(features.threads, features.network)
        spec = ServiceSpec(
            name=features.service,
            skeleton=skeleton,
            program=program,
            request_mix=dict(features.handler_mix) or None,
            files=files,
        )
    return TierOutcome(
        service=features.service,
        features=features,
        spec=spec,
        tuning=tuning,
        wall_clock_s=time.perf_counter() - started,
        cache_stats=cache.stats,
    )


def resolve_executor(
    executor: str = "auto",
    *,
    n_tasks: int,
    max_workers: Optional[int] = None,
) -> str:
    """Map an executor request to the concrete mode that will run.

    ``"auto"`` picks ``"process"`` when fan-out can help (more than one
    task, more than one CPU, more than one worker allowed) and
    ``"serial"`` otherwise. Explicit modes are honoured as-is.
    """
    if executor not in EXECUTOR_MODES:
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {EXECUTOR_MODES}")
    if executor != "auto":
        return executor
    cpus = os.cpu_count() or 1
    workers = max_workers if max_workers is not None else cpus
    if n_tasks > 1 and cpus > 1 and workers > 1:
        return "process"
    return "serial"


class TierCheckpoint:
    """Durable per-tier outcomes keyed by the task's structural digest.

    Each finished :class:`TierOutcome` is pickled to
    ``<dir>/<service>-<digest16>.pkl`` the moment its tier completes, so
    a pipeline killed midway resumes from the same directory without
    re-running finished tiers. The key covers every field of the
    :class:`TierTask` (artifacts, generator config, tune config, seeds),
    so any change to what a tier is asked to do misses the stale entry
    instead of resurrecting it.

    Integrity: checkpoints are digest-stamped envelopes (see
    :mod:`repro.validation.integrity`) written atomically. A corrupted
    or truncated file is **quarantined** to ``<name>.pkl.quarantined``
    and counted in telemetry, then treated as a miss — the tier simply
    re-runs; it is never silently resumed from bad bytes. Files from
    before the envelope format (or foreign files), and envelopes of
    another payload version, are plain misses.
    """

    #: schema name stamped into every checkpoint envelope
    SCHEMA = "tier-checkpoint"
    #: payload schema version of the pickled TierOutcome layout (the
    #: tier's ServiceFeatures, generated spec and tuning result; a
    #: change to the artifacts already changes the key,
    #: ``stable_digest(task)``)
    SCHEMA_VERSION = 2

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path(self, task: TierTask) -> str:
        """The checkpoint file this task would load from / save to."""
        digest = stable_digest(task)[:16]
        return os.path.join(
            self.directory, f"{task.artifacts.service}-{digest}.pkl")

    def load(self, path: str) -> Optional[TierOutcome]:
        """The outcome saved at ``path`` (see :meth:`path`), or None on
        miss/corruption.

        Corruption is never silent: a damaged checkpoint is moved to
        ``<path>.quarantined`` (evidence for inspection), reported via
        the ``ditto_artifact_quarantines_total`` telemetry counter, and
        only then treated as a miss. Legacy pre-envelope pickles lack
        the artifact magic and are quietly missed, not quarantined.
        """
        try:
            with open(path, "rb") as handle:
                prefix = handle.read(len(integrity.MAGIC))
        except OSError:
            return None
        if prefix != integrity.MAGIC:
            # Pre-envelope or foreign file: a miss, not corruption.
            return None
        try:
            outcome = integrity.load_exact(
                path, schema=self.SCHEMA, version=self.SCHEMA_VERSION)
        except ArtifactIntegrityError:
            return None
        return outcome if isinstance(outcome, TierOutcome) else None

    def save(self, path: str, outcome: TierOutcome) -> None:
        """Persist ``outcome`` at ``path`` atomically, in a
        digest-stamped envelope."""
        integrity.save_object(path, outcome, schema=self.SCHEMA,
                              version=self.SCHEMA_VERSION)


def _count_pipeline_event(name: str, help_text: str, **labels: str) -> None:
    session = current_session()
    if session is None:
        return
    session.registry.counter(
        name, help_text, tuple(sorted(labels))).inc(1, **labels)


class _PipelineRun:
    """Mutable state for one pipeline invocation (retry bookkeeping)."""

    def __init__(
        self,
        tasks: Sequence[TierTask],
        tier_fn: Callable[[TierTask], TierOutcome],
        tier_retries: int,
        checkpoint: Optional[TierCheckpoint],
    ) -> None:
        self.tasks = tasks
        self.tier_fn = tier_fn
        self.tier_retries = tier_retries
        self.checkpoint = checkpoint
        self.outcomes: List[Optional[TierOutcome]] = [None] * len(tasks)
        self.failures: Dict[int, int] = {}
        self.pending: List[int] = []
        # Hash each task once: load and save share its checkpoint path.
        self.paths = ([checkpoint.path(task) for task in tasks]
                      if checkpoint is not None else [])
        for index in range(len(tasks)):
            cached = (checkpoint.load(self.paths[index])
                      if checkpoint is not None else None)
            if cached is not None:
                self.outcomes[index] = cached
            else:
                self.pending.append(index)
        self.resumed = len(tasks) - len(self.pending)

    def completed(self) -> Dict[str, TierOutcome]:
        return {outcome.service: outcome
                for outcome in self.outcomes if outcome is not None}

    def complete(self, index: int, outcome: TierOutcome) -> None:
        self.outcomes[index] = outcome
        self.pending.remove(index)
        if self.checkpoint is not None:
            self.checkpoint.save(self.paths[index], outcome)

    def note_failure(self, index: int, error: Exception) -> None:
        """Record one failed attempt; raise once the tier is exhausted."""
        self.failures[index] = self.failures.get(index, 0) + 1
        tier = self.tasks[index].artifacts.service
        if self.failures[index] > self.tier_retries:
            raise TierExecutionError(
                f"tier {tier!r} failed after "
                f"{self.failures[index]} attempt(s): {error}",
                tier=tier,
                attempts=self.failures[index],
                outcomes=self.completed(),
                last_error=error,
            ) from error
        _count_pipeline_event(
            "ditto_tier_retries_total",
            "per-tier pipeline attempts retried after a failure",
            tier=tier)

    def run_serial(self) -> None:
        for index in list(self.pending):
            while True:
                try:
                    outcome = self.tier_fn(self.tasks[index])
                except Exception as error:  # noqa: BLE001 — retry boundary
                    self.note_failure(index, error)
                    continue
                break
            self.complete(index, outcome)

    def run_pool(self, workers: int) -> None:
        """Drain pending tiers through a process pool; checkpoint as
        they finish.

        Raises :class:`concurrent.futures.BrokenExecutor` when the pool
        dies (e.g. a worker process was killed) — the caller runs
        whatever is still pending serially.
        """
        with ProcessPoolExecutor(max_workers=workers) as pool:
            active = {pool.submit(self.tier_fn, self.tasks[index]): index
                      for index in self.pending}
            while active:
                done, _ = wait(set(active), return_when=FIRST_COMPLETED)
                for future in done:
                    index = active.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        raise
                    except Exception as error:  # noqa: BLE001
                        self.note_failure(index, error)
                        active[pool.submit(
                            self.tier_fn, self.tasks[index])] = index
                        continue
                    self.complete(index, outcome)


def run_tier_pipeline(
    tasks: Sequence[TierTask],
    *,
    executor: str = "auto",
    max_workers: Optional[int] = None,
    tier_fn: Callable[[TierTask], TierOutcome] = clone_tier,
    tier_retries: int = 1,
    checkpoint_dir: Optional[str] = None,
) -> Tuple[List[TierOutcome], str]:
    """Fan ``tasks`` out across the chosen executor.

    Returns ``(outcomes, resolved_mode)`` with outcomes in task order
    regardless of completion order, so downstream assembly (and the
    clones themselves) cannot depend on scheduling.

    ``tier_fn`` is the per-tier stage (default :func:`clone_tier`); it
    must be picklable for the process mode. A tier that raises is
    re-run up to ``tier_retries`` extra times; exhaustion raises
    :class:`~repro.util.errors.TierExecutionError` carrying every
    sibling outcome that did complete. A broken pool (worker killed)
    falls back to serial and re-runs only unfinished tiers —
    ``resolved_mode`` reports the mode that actually finished the work.
    ``checkpoint_dir`` persists each outcome as it lands so an
    interrupted run resumes from disk (see :class:`TierCheckpoint`).
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError("max_workers must be >= 1")
    if not isinstance(tier_retries, int) or isinstance(tier_retries, bool) \
            or tier_retries < 0:
        raise ConfigurationError(
            f"tier_retries must be an int >= 0, got {tier_retries!r}")
    mode = resolve_executor(executor, n_tasks=len(tasks),
                            max_workers=max_workers)
    checkpoint = (TierCheckpoint(checkpoint_dir)
                  if checkpoint_dir is not None else None)
    state = _PipelineRun(tasks, tier_fn, tier_retries, checkpoint)
    with span("tier_pipeline", executor=mode, tiers=len(tasks),
              resumed=state.resumed):
        if mode == "serial" or not state.pending:
            state.run_serial()
            return list(state.outcomes), "serial"
        workers = (max_workers if max_workers is not None
                   else (os.cpu_count() or 1))
        workers = max(1, min(workers, len(tasks)))
        try:
            state.run_pool(workers)
        except BrokenExecutor:
            _count_pipeline_event(
                "ditto_pipeline_degradations_total",
                "executor degradations after a broken worker pool",
                from_mode="process", to_mode="serial")
            state.run_serial()
            mode = "serial"
        return list(state.outcomes), mode
