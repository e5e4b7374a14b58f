"""Data-dependency profiling (§4.4.6, the DCFG stand-in).

Reads the sampled RAW/WAR/WAW register dependency distances, tallied by
the collector into the 11 exponential bins 1..1024, and the
pointer-chase fraction that bounds memory-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.profiling.artifacts import ServiceArtifacts
from repro.util.errors import ProfilingError


@dataclass
class DependencyDistanceProfile:
    """Quantised dependency-distance distributions."""

    raw: Dict[int, float] = field(default_factory=dict)
    war: Dict[int, float] = field(default_factory=dict)
    waw: Dict[int, float] = field(default_factory=dict)
    pointer_chase_frac: float = 0.0


def profile_dependencies(
    artifacts: ServiceArtifacts,
) -> DependencyDistanceProfile:
    """Extract the dependency profile from the DCFG sample tallies."""
    tally = artifacts.deps
    if not tally.samples:
        raise ProfilingError(f"{artifacts.service}: no dependency samples")
    return DependencyDistanceProfile(
        raw={edge: float(count) for edge, count in tally.raw.items()},
        war={edge: float(count) for edge, count in tally.war.items()},
        waw={edge: float(count) for edge, count in tally.waw.items()},
        pointer_chase_frac=tally.chases / tally.samples,
    )
