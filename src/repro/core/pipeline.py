"""Parallel per-tier cloning pipeline.

Once profiling has produced per-service artifacts and RPCs have been
stripped for stand-alone tuning, Ditto's Fig. 3 pipeline is
embarrassingly parallel across tiers (§4.5: each tier's knobs calibrate
independently). This module fans the per-tier stage — feature
extraction → fine-tune → body/skeleton generation — out across the
clone's :class:`~repro.runtime.pool.WorkerPool`. A tuned tier's spec is
the one the tuner generated for the knobs it chose.

Determinism: a tier's outcome is a pure function of its
:class:`TierTask` payload. Every random stream a tier consumes is
derived from the task's own seeds via the named-stream discipline in
:mod:`repro.util.rng` (see :func:`derive_tier_seed`), never from shared
mutable state, so serial and process-pool runs produce bit-identical
clones and execution order cannot leak between tiers.

Executor selection: ``"process"`` (the clone's pool, or one opened for
the call), ``"serial"`` (plain loop), or ``"auto"`` (a pool whenever it
can help: more than one tier and more than one CPU). There is no
thread mode: the tier stage is pure Python, so threads only serialise
on the interpreter lock.

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

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.app.service import ServiceSpec
from repro.core.body_gen import GeneratorConfig
from repro.core.features import ServiceFeatures, extract_service_features
from repro.core.finetune import (
    DEFAULT_MAX_TUNE_ITERATIONS,
    FineTuneResult,
    fine_tune,
)
from repro.core.synthesis import synthesize_service
from repro.profiling.artifacts import ServiceArtifacts
from repro.runtime.expcache import (
    DEFAULT_CACHE_ENTRIES,
    CacheStats,
    ExperimentCache,
    SharedExperimentCache,
)
from repro.runtime.experiment import ExperimentConfig
from repro.runtime.pool import (
    EXECUTOR_MODES,
    WorkerPool,
    fan_out,
    resolve_executor,
    worker_pool,
)
from repro.telemetry.context import current_session
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


def clone_tier(task: TierTask) -> TierOutcome:
    """Run one tier through feature extraction → fine-tune → generation.

    Pure function of ``task``; safe to run in any executor worker.
    Telemetry observes but never steers: every random stream is derived
    from the task's seeds, so outcomes are bit-identical with telemetry
    on or off.
    """
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
            # The tuner already generated the tier with the knobs it
            # chose; that is the tier's spec.
            spec = tuning.spec
        else:
            with span("generation", category="tier", service=service):
                spec = synthesize_service(features, config)
    return TierOutcome(
        service=features.service,
        features=features,
        spec=spec,
        tuning=tuning,
        wall_clock_s=time.perf_counter() - started,
        cache_stats=cache.stats,
    )


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


def run_tier_pipeline(
    tasks: Sequence[TierTask],
    *,
    executor: str = "auto",
    max_workers: Optional[int] = None,
    tier_fn: Callable[[TierTask], TierOutcome] = clone_tier,
    tier_retries: int = 1,
    checkpoint_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> Tuple[List[TierOutcome], str]:
    """Fan ``tasks`` out across the clone's pool, or the chosen executor.

    Returns ``(outcomes, resolved_mode)`` with outcomes in task order
    regardless of completion order, so downstream assembly (and the
    clones themselves) cannot depend on scheduling.

    ``pool`` is the clone's shared :class:`~repro.runtime.pool.WorkerPool`;
    without one, ``executor``/``max_workers`` open a pool for this call
    alone when they resolve to ``"process"``. ``tier_fn`` is the
    per-tier stage (default :func:`clone_tier`); it must be picklable
    for the process mode. A tier that raises is re-run up to
    ``tier_retries`` extra times; exhaustion raises
    :class:`~repro.util.errors.TierExecutionError` carrying every
    sibling outcome that did complete. A broken pool (worker killed)
    falls back to serial and re-runs only unfinished tiers —
    ``resolved_mode`` reports the mode that actually finished the work.
    ``checkpoint_dir`` persists each outcome as it lands so an
    interrupted run resumes from disk (see :class:`TierCheckpoint`).
    """
    if not isinstance(tier_retries, int) or isinstance(tier_retries, bool) \
            or tier_retries < 0:
        raise ConfigurationError(
            f"tier_retries must be an int >= 0, got {tier_retries!r}")
    with contextlib.ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(worker_pool(
                executor, n_tasks=len(tasks), max_workers=max_workers))
        checkpoint = (TierCheckpoint(checkpoint_dir)
                      if checkpoint_dir is not None else None)
        # Hash each task once: load and save share its checkpoint path.
        paths = ([checkpoint.path(task) for task in tasks]
                 if checkpoint is not None else [])
        outcomes: List[Optional[TierOutcome]] = (
            [checkpoint.load(path) for path in paths]
            if checkpoint is not None else [None] * len(tasks))
        pending = {index: task for index, task in enumerate(tasks)
                   if outcomes[index] is None}
        failures: Dict[int, int] = {}

        def complete(index: int, outcome: TierOutcome) -> None:
            outcomes[index] = outcome
            if checkpoint is not None:
                checkpoint.save(paths[index], outcome)

        def retry(index: int, error: Exception) -> None:
            """Count one failed attempt; raise once the tier is exhausted."""
            failures[index] = failures.get(index, 0) + 1
            tier = tasks[index].artifacts.service
            if failures[index] > tier_retries:
                raise TierExecutionError(
                    f"tier {tier!r} failed after "
                    f"{failures[index]} attempt(s): {error}",
                    tier=tier, attempts=failures[index],
                    outcomes={outcome.service: outcome
                              for outcome in outcomes if outcome is not None},
                    last_error=error,
                ) from error
            session = current_session()
            if session is not None:
                session.registry.counter(
                    "ditto_tier_retries_total",
                    "per-tier pipeline attempts retried after a failure",
                    ("tier",)).inc(1, tier=tier)

        with span("tier_pipeline", tiers=len(tasks),
                  resumed=len(tasks) - len(pending)) as tick:
            mode = fan_out(pool, tier_fn, pending, complete, retry)
            tick.set(executor=mode)
        return list(outcomes), mode
