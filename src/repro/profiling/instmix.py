"""Instruction-mix profiling (§4.4.2, the Intel SDE stand-in).

Builds the dynamic iform distribution from the sampled instruction
stream (kept as a per-iform table of
:class:`~repro.profiling.artifacts.IformStats`), measures per-request
instruction counts and REP repeat counts, and clusters the observed
iforms hierarchically by functionality, operands and ALU usage so the
generator can pick representatives with matching hardware resource
requirements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.clustering import hierarchical_feature_clusters
from repro.isa.instructions import feature_vector, iform
from repro.profiling.artifacts import ServiceArtifacts
from repro.util.errors import ProfilingError
from repro.util.stats import Histogram

#: Euclidean threshold under which two iforms count as resource-equivalent
CLUSTER_THRESHOLD = 1.35


@dataclass
class InstructionMixProfile:
    """The extracted instruction-mix feature set for one service."""

    mix: Histogram = field(default_factory=Histogram)
    instructions_per_request: float = 0.0
    instructions_per_request_by_handler: Dict[str, float] = field(
        default_factory=dict)
    rep_counts: Dict[str, float] = field(default_factory=dict)
    clusters: List[List[str]] = field(default_factory=list)

    def probability(self, name: str) -> float:
        """Dynamic frequency of one iform."""
        return self.mix.probability(name)

    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are conditional branches."""
        total = 0.0
        for name, prob in self.mix.normalized().items():
            form = iform(str(name))
            if form.is_branch and form.name not in ("JMP_rel", "CALL_rel",
                                                    "RET"):
                total += prob
        return total


def profile_instruction_mix(artifacts: ServiceArtifacts) -> InstructionMixProfile:
    """Extract the instruction-mix profile from the sampled iform table."""
    table = artifacts.instruction_table
    if not table:
        raise ProfilingError(
            f"{artifacts.service}: no instruction stream captured")
    for name in table:
        iform(name)  # validate observation
    profile = InstructionMixProfile(mix=Histogram(
        {name: float(stats.samples) for name, stats in table.items()}))
    profile.rep_counts = {
        name: stats.rep_sum / stats.rep_samples
        for name, stats in table.items() if stats.rep_samples
    }
    if artifacts.instructions_per_request:
        samples = artifacts.instructions_per_request
        profile.instructions_per_request = sum(samples) / len(samples)
        by_handler: Dict[str, List[float]] = {}
        for seq, value in enumerate(samples):
            handler = artifacts.handler_of_request.get(seq)
            if handler is not None:
                by_handler.setdefault(handler, []).append(value)
        profile.instructions_per_request_by_handler = {
            handler: sum(vals) / len(vals)
            for handler, vals in by_handler.items()
        }
    observed = sorted(table)
    vectors = [feature_vector(iform(name)) for name in observed]
    profile.clusters = hierarchical_feature_clusters(
        observed, vectors, threshold=CLUSTER_THRESHOLD)
    return profile
