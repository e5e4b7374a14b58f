"""Data-dependency profiling (§4.4.6, the DCFG stand-in).

Quantises sampled RAW/WAR/WAW register dependency distances into the 11
exponential bins 1..1024 and measures the pointer-chase fraction that
bounds memory-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hw.ir import DEP_DISTANCE_BINS
from repro.profiling.artifacts import ServiceArtifacts
from repro.util.errors import ProfilingError
from repro.util.quantize import bin_index


@dataclass
class DependencyDistanceProfile:
    """Quantised dependency-distance distributions."""

    raw: Dict[int, float] = field(default_factory=dict)
    war: Dict[int, float] = field(default_factory=dict)
    waw: Dict[int, float] = field(default_factory=dict)
    pointer_chase_frac: float = 0.0


def _quantise_into(target: Dict[int, float], distance: float) -> None:
    edge = DEP_DISTANCE_BINS[bin_index(max(1.0, distance),
                                       DEP_DISTANCE_BINS)]
    target[edge] = target.get(edge, 0.0) + 1.0


def profile_dependencies(
    artifacts: ServiceArtifacts,
) -> DependencyDistanceProfile:
    """Extract the dependency profile from DCFG samples."""
    if not artifacts.dep_samples:
        raise ProfilingError(f"{artifacts.service}: no dependency samples")
    profile = DependencyDistanceProfile()
    chases = 0
    for sample in artifacts.dep_samples:
        _quantise_into(profile.raw, sample.raw)
        _quantise_into(profile.war, sample.war)
        _quantise_into(profile.waw, sample.waw)
        if sample.pointer_chase:
            chases += 1
    profile.pointer_chase_frac = chases / len(artifacts.dep_samples)
    return profile
