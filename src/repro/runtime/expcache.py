"""Experiment memoization, for the two places where keys repeat.

:func:`~repro.runtime.experiment.run_experiment` is a deterministic
function of its inputs (all randomness flows from the config seed
through named :class:`~repro.util.rng.RngStream` children), so its
results can be memoized by a stable digest of those inputs —
:func:`~repro.util.spec_hash.stable_digest` over ``(deployment, load,
config)``. A digest of a whole deployment is not free, though, so a
memo only pays where the same request really comes back:

* across fleet jobs — :class:`SharedExperimentCache`, a directory of
  digest-keyed results that a job with an identical spec (tuning
  measurements and gate replays alike) finds already on disk;
* across figures — :class:`ExperimentCache`, an in-memory LRU; the
  benchmark suite's ``MEASURE_CACHE`` serves the (deployment, load,
  platform) points several figures revisit.

A plain clone's fine-tuning uses neither: no knob vector repeated
within one ``fine_tune`` call in 382 measured tuning iterations (the
tier-1 suite, the figure benchmarks, and the seed-7 ``clone_socialnet``
and ``fleet_mixed`` workloads), so a per-tier memo never hit and only
spent a digest per measurement.

Runs that carry a live :class:`~repro.tracing.tracer.Tracer` are *not*
cached: tracing is a side effect the caller wants, so those runs bypass
the cache (counted separately as ``bypasses``).

Accounting lives in real telemetry counters
(``ditto_expcache_*_total{cache=...}`` in a
:class:`~repro.telemetry.registry.MetricsRegistry`) — the ambient
telemetry session's registry when one is active at construction, else a
private one. :attr:`ExperimentMemo.stats` is a derived view over those
counters, so :class:`CacheStats` (and the
:class:`~repro.core.cloner.CloneReport` fields built from it) reads the
same for both caches.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

from repro.app.service import Deployment
from repro.loadgen.generator import LoadSpec
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.runtime.metrics import RunResult
from repro.telemetry.context import current_session
from repro.telemetry.registry import MetricsRegistry
from repro.util.errors import ArtifactIntegrityError, ConfigurationError
from repro.util.spec_hash import stable_digest

__all__ = ["CacheStats", "ExperimentCache", "ExperimentMemo",
           "SharedExperimentCache"]

#: default number of memoized runs an :class:`ExperimentCache` retains
DEFAULT_CACHE_ENTRIES = 256

#: registry metric names the caches account through (``cache`` label =
#: the cache's ``name``)
CACHE_METRICS = {
    "hits": "ditto_expcache_hits_total",
    "misses": "ditto_expcache_misses_total",
    "bypasses": "ditto_expcache_bypasses_total",
    "evictions": "ditto_expcache_evictions_total",
}

#: registry metric names for the fleet-wide shared store
#: (:class:`SharedExperimentCache`; ``cache`` label = the cache's name)
SHARED_CACHE_METRICS = {
    "disk_hits": "ditto_fleet_shared_cache_hits_total",
    "disk_stores": "ditto_fleet_shared_cache_stores_total",
}


@dataclass
class CacheStats:
    """Hit/miss accounting for one experiment cache."""

    hits: int = 0
    misses: int = 0
    #: runs that skipped the cache (e.g. a live tracer was attached)
    bypasses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Cacheable lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups served without simulating."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another stats block in (for cross-worker aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.bypasses += other.bypasses
        self.evictions += other.evictions
        return self


class ExperimentMemo:
    """What both caches share: the key, the traced-run bypass and the
    hit/miss/bypass counters. Subclasses decide where results live
    (:meth:`_lookup` / :meth:`_insert`).

    ``name`` labels this cache's counter series; caches sharing a
    registry must use distinct names to keep their series apart.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        session = current_session()
        self.registry = (session.registry if session is not None
                         else MetricsRegistry())
        self._counters = {
            field: self.registry.counter(
                metric_name,
                f"experiment cache {field}", ("cache",))
            for field, metric_name in CACHE_METRICS.items()
        }

    def _count(self, event: str, amount: int = 1) -> None:
        self._counters[event].inc(amount, cache=self.name)

    @property
    def stats(self) -> CacheStats:
        """Derived view over this cache's registry counters."""
        return CacheStats(**{
            field: int(counter.value(cache=self.name))
            for field, counter in self._counters.items()
        })

    @staticmethod
    def key(
        deployment: Deployment,
        load: LoadSpec,
        config: ExperimentConfig,
    ) -> str:
        """The memoization key: a stable digest of the full request.

        The tracer is excluded — it does not change measured results
        (``run_experiment`` only *writes* spans into it), and live-traced
        runs bypass the cache anyway.
        """
        return stable_digest(deployment, load, replace(config, tracer=None))

    def run(
        self,
        deployment: Deployment,
        load: LoadSpec,
        config: ExperimentConfig,
    ) -> RunResult:
        """``run_experiment`` with memoization.

        A hit returns a result of its own, so callers can mutate their
        view without corrupting the cache.
        """
        if config.tracer is not None:
            self._count("bypasses")
            return run_experiment(deployment, load, config)
        key = self.key(deployment, load, config)
        cached = self._lookup(key)
        if cached is not None:
            self._count("hits")
            return cached
        self._count("misses")
        result = run_experiment(deployment, load, config)
        self._insert(key, result)
        return result

    def _lookup(self, key: str) -> Optional[RunResult]:
        raise NotImplementedError

    def _insert(self, key: str, result: RunResult) -> None:
        raise NotImplementedError


class ExperimentCache(ExperimentMemo):
    """In-memory LRU memoization of :func:`run_experiment` results.

    >>> cache = ExperimentCache()
    >>> # result = cache.run(deployment, load, config)  # miss: simulates
    >>> # again = cache.run(deployment, load, config)   # hit: no sim
    """

    def __init__(self, *, max_entries: int = DEFAULT_CACHE_ENTRIES,
                 name: str = "expcache") -> None:
        if max_entries < 1:
            raise ConfigurationError("cache needs max_entries >= 1")
        super().__init__(name)
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, RunResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key: str) -> Optional[RunResult]:
        """Fetch ``key`` or ``None``; a hit returns a private deep copy."""
        cached = self._entries.get(key)
        if cached is None:
            return None
        self._entries.move_to_end(key)
        return copy.deepcopy(cached)

    def _insert(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key``, evicting LRU entries."""
        self._entries[key] = copy.deepcopy(result)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count("evictions")


class SharedExperimentCache(ExperimentMemo):
    """Memoization in a fleet-wide on-disk store, and nowhere else.

    A directory of digest-keyed result files, one envelope per key
    (written via :mod:`repro.validation.integrity`, so entries are
    atomic and self-verifying). Several jobs — in the same process or
    not — point at the same directory and reuse each other's
    measurements: a second job with an identical spec finds the first
    job's simulations already on disk. Every lookup reads the disk; a
    miss simulates and writes the envelope.

    Besides the ordinary hit/miss counters, disk traffic is counted in
    ``ditto_fleet_shared_cache_{hits,stores}_total{cache=...}``.
    Corrupt entries are quarantined by the integrity layer and treated
    as misses, so a torn write can cost a repeat simulation but never
    wrong results.
    """

    #: envelope schema for one memoized :class:`RunResult`
    SCHEMA = "fleet-exp-result"
    SCHEMA_VERSION = 1

    def __init__(self, directory: str, *, name: str = "fleet") -> None:
        super().__init__(name)
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._shared_counters = {
            field: self.registry.counter(
                metric_name,
                f"fleet shared experiment cache {field}", ("cache",))
            for field, metric_name in SHARED_CACHE_METRICS.items()
        }

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def _lookup(self, key: str) -> Optional[RunResult]:
        # Lazy import: runtime/ must not depend on validation/ at module
        # load (validation's gate imports runtime for replay).
        from repro.validation import integrity
        try:
            result = integrity.load_object(
                self._path(key), schema=self.SCHEMA,
                max_version=self.SCHEMA_VERSION)
        except (FileNotFoundError, ArtifactIntegrityError):
            # Absent, or quarantined by the loader: re-measure.
            return None
        self._shared_counters["disk_hits"].inc(1, cache=self.name)
        return result

    def _insert(self, key: str, result: RunResult) -> None:
        from repro.validation import integrity
        path = self._path(key)
        if not os.path.exists(path):
            integrity.save_object(path, result, schema=self.SCHEMA,
                                  version=self.SCHEMA_VERSION)
            self._shared_counters["disk_stores"].inc(1, cache=self.name)
