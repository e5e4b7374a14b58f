"""Branch-behaviour profiling (§4.4.3).

Measures per-site taken and transition rates from outcome traces,
quantises both onto the log-scale grid 2^-1 .. 2^-10, and aggregates an
execution-weighted distribution over (taken-exponent, transition-
exponent, dominant-direction) tuples, plus the static-site count that
drives predictor aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.profiling.artifacts import ServiceArtifacts
from repro.util.errors import ProfilingError
from repro.util.quantize import LogScaleQuantizer
from repro.util.stats import Histogram

#: (taken exponent m, transition exponent n, dominant direction taken?)
RateBin = Tuple[int, int, bool]


@dataclass
class BranchProfile:
    """The extracted branch feature set."""

    rate_distribution: Histogram = field(default_factory=Histogram)
    static_sites: int = 0
    mean_taken_rate: float = 0.0
    mean_transition_rate: float = 0.0

    @staticmethod
    def rates_for_bin(bin_: RateBin) -> Tuple[float, float]:
        """Convert a quantised bin back to (taken_rate, transition_rate)."""
        m, n, taken_dominant = bin_
        quantizer = LogScaleQuantizer()
        folded = quantizer.value(m)
        taken = 1.0 - folded if taken_dominant else folded
        transition = quantizer.value(n)
        return taken, transition


def profile_branches(
    artifacts: ServiceArtifacts,
    max_exponent: int = 10,
) -> BranchProfile:
    """Extract the branch profile from per-site outcome traces."""
    if not artifacts.branch_sites:
        raise ProfilingError(f"{artifacts.service}: no branch traces")
    quantizer = LogScaleQuantizer(max_exponent=max_exponent)
    profile = BranchProfile()
    weighted_taken = 0.0
    weighted_transition = 0.0
    total_weight = 0.0
    for site in artifacts.branch_sites:
        taken = site.taken_rate
        transition = site.transition_rate
        bin_: RateBin = (
            quantizer.quantize(taken),
            quantizer.quantize(transition),
            taken >= 0.5,
        )
        profile.rate_distribution.add(bin_, site.executions_weight)
        weighted_taken += taken * site.executions_weight
        weighted_transition += transition * site.executions_weight
        total_weight += site.executions_weight
    profile.static_sites = len({site.pc for site in artifacts.branch_sites})
    if total_weight > 0:
        profile.mean_taken_rate = weighted_taken / total_weight
        profile.mean_transition_rate = weighted_transition / total_weight
    return profile
