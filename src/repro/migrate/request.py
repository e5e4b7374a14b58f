"""Typed migration request — the fleet-facing sibling of ``CloneRequest``.

A :class:`MigrationRequest` names a saved clone bundle and a
destination platform and carries every parameter the three migration
stages need (preflight constraints, warm-start re-tune budgets, gate
tolerances, remediation policy, sim watchdogs). Like ``CloneRequest``
it is frozen, validated at construction, and content-addressable via
:meth:`digest` so the fleet's job store can deduplicate and fence it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.platform import PlatformSpec
from repro.util.errors import ConfigurationError
from repro.util.spec_hash import stable_digest
from repro.validation.remediate import RemediationPolicy

__all__ = ["MigrationRequest"]


def _require_int(name: str, value, *, minimum: Optional[int] = None,
                 ) -> None:
    if isinstance(value, bool) or not isinstance(value, int) \
            or (minimum is not None and value < minimum):
        bound = f" >= {minimum}" if minimum is not None else ""
        raise ConfigurationError(
            f"{name} must be an int{bound}, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class MigrationRequest:
    """Everything needed to migrate one bundle to one destination."""

    #: path of the source clone bundle (integrity-checked at load)
    bundle_path: str
    #: destination platform the clone must be validated on
    destination: PlatformSpec
    #: overrides the bundle's embedded source platform (required for
    #: legacy bundles written before platform provenance existed)
    source_platform: Optional[PlatformSpec] = None
    #: destination cluster size bound (None = unconstrained)
    destination_nodes: Optional[int] = None
    #: apply the documented consolidation rule instead of refusing
    #: when the tier DAG needs more nodes than the destination has
    allow_degraded: bool = False
    seed: int = 17
    #: simulated seconds per re-tune/gate measurement run
    duration_s: float = 0.25
    #: re-tune budget per tier; small because re-tunes warm-start from
    #: the source knob values (the search starts near the answer)
    max_tune_iterations: int = 5
    tune_tolerance: float = 0.05
    #: per-metric relative-tolerance overrides for the destination gate
    tolerances: Optional[Dict[str, float]] = None
    #: remediation ladder for gate failures / tripped sim budgets
    #: (None = the default policy)
    remediation: Optional[RemediationPolicy] = None
    #: sim watchdogs bounding every destination measurement run
    max_sim_events: Optional[int] = None
    sim_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.bundle_path, str) or not self.bundle_path:
            raise ConfigurationError(
                "bundle_path must be a non-empty string")
        if not isinstance(self.destination, PlatformSpec):
            raise ConfigurationError(
                f"destination must be a PlatformSpec, "
                f"got {type(self.destination).__name__}")
        if self.source_platform is not None \
                and not isinstance(self.source_platform, PlatformSpec):
            raise ConfigurationError(
                f"source_platform must be a PlatformSpec, "
                f"got {type(self.source_platform).__name__}")
        _require_int("seed", self.seed)
        _require_int("max_tune_iterations", self.max_tune_iterations,
                     minimum=1)
        for name in ("destination_nodes", "max_sim_events"):
            if getattr(self, name) is not None:
                _require_int(name, getattr(self, name), minimum=1)
        for name in ("duration_s", "tune_tolerance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, "
                    f"got {getattr(self, name)!r}")
        if self.sim_deadline_s is not None \
                and not self.sim_deadline_s >= self.duration_s:
            raise ConfigurationError(
                f"sim_deadline_s ({self.sim_deadline_s!r}) must cover "
                f"duration_s ({self.duration_s!r})")
        for metric, value in (self.tolerances or {}).items():
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)) or not value >= 0:
                raise ConfigurationError(
                    f"tolerance for {metric!r} must be a non-negative "
                    f"number, got {value!r}")
        if not self.tolerances:
            # no overrides have one form, so they share one digest
            object.__setattr__(self, "tolerances", None)
        if self.remediation is not None \
                and not isinstance(self.remediation, RemediationPolicy):
            raise ConfigurationError(
                f"remediation must be a RemediationPolicy, "
                f"got {type(self.remediation).__name__}")

    def digest(self) -> str:
        """Content digest for dedup/idempotent fleet submission.

        The bundle is identified by *path*, not content — re-submitting
        after overwriting the bundle file is a new run of the same job
        spec, exactly like re-running a clone after editing its source.
        """
        return stable_digest({"kind": "migration", "request": self})

    def describe(self) -> str:
        """One-line human summary for fleet listings."""
        source = (self.source_platform.name
                  if self.source_platform is not None else "bundle")
        flags = []
        if self.destination_nodes is not None:
            flags.append(f"nodes<={self.destination_nodes}")
        if self.allow_degraded:
            flags.append("degraded-ok")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (f"migrate {self.bundle_path} {source}→"
                f"{self.destination.name} seed={self.seed}{suffix}")
