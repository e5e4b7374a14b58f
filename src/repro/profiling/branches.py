"""Branch-behaviour profiling (§4.4.3).

The collector measures each sampled site's taken and transition rates
from its outcome history, quantises both onto the log-scale grid
2^-1 .. 2^-10 and tallies an execution-weighted distribution over
(taken-exponent, transition-exponent, dominant-direction) tuples (a
:class:`~repro.profiling.artifacts.BranchTally`); the profile is that
distribution, the weighted mean rates, and the static-site count that
drives predictor aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.profiling.artifacts import RateBin, ServiceArtifacts
from repro.util.errors import ProfilingError
from repro.util.quantize import LogScaleQuantizer
from repro.util.stats import Histogram


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


def profile_branches(artifacts: ServiceArtifacts) -> BranchProfile:
    """Extract the branch profile from the service's branch tally."""
    tally = artifacts.branches
    if not tally.static_sites:
        raise ProfilingError(f"{artifacts.service}: no branch traces")
    profile = BranchProfile(
        rate_distribution=Histogram(dict(tally.rates.counts)),
        static_sites=tally.static_sites)
    if tally.weight > 0:
        profile.mean_taken_rate = tally.taken / tally.weight
        profile.mean_transition_rate = tally.transitions / tally.weight
    return profile
