"""Escalating remediation ladder for failed gates and tripped watchdogs.

When a clone fails its :class:`~repro.validation.gate.FidelityGate` (or
a tier's simulation trips a watchdog budget), the cloner does not just
give up: it climbs a deterministic ladder of increasingly conservative
retries. Each rung is a :class:`RemediationStep` that perturbs only
*derived* state — a re-seed drawn from the named-stream hierarchy and a
widened fine-tune budget — so remediation never compromises
reproducibility: the same failure under the same root seed climbs the
same ladder. A rung runs on the clone's own executor: a tier's outcome
is a pure function of its task, so changing the executor could only
make the retry slower, never different.

The policy is pure planning; the cloner owns execution and records every
step it took (and why) on the :class:`~repro.core.cloner.CloneReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

__all__ = ["RemediationPolicy", "RemediationStep"]


@dataclass(frozen=True)
class RemediationStep:
    """One planned retry: what changes versus the failed attempt."""

    #: 1-based retry index (attempt 0 is the original, unremediated run)
    attempt: int
    #: what triggered this rung: ``"gate_failure"`` or ``"sim_budget"``
    reason: str
    #: re-derived root seed for the retry (equal to the base seed when
    #: the policy disables re-seeding)
    seed: int
    #: widened fine-tune iteration budget
    max_tune_iterations: int


@dataclass(frozen=True)
class RemediationPolicy:
    """How far, and in what direction, to escalate on failure.

    ``max_attempts`` counts *retries* after the original run;
    ``widen_tune_factor`` multiplies the fine-tune budget per rung
    (compounding); ``reseed`` gates the other escalation axis. Defaults
    climb both axes at once — re-seed and widen — because they address
    disjoint failure causes (unlucky sampling, under-converged tuning)
    and a retry is expensive enough to make each one count.
    """

    max_attempts: int = 2
    widen_tune_factor: float = 1.5
    reseed: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigurationError("max_attempts must be >= 0")
        if self.widen_tune_factor < 1.0:
            raise ConfigurationError(
                f"widen_tune_factor must be >= 1.0, "
                f"got {self.widen_tune_factor!r}")

    def plan(self, attempt: int, *, reason: str, base_seed: int,
             base_tune_iterations: int) -> Optional[RemediationStep]:
        """The rung for retry ``attempt`` (1-based); None when exhausted."""
        if attempt < 1:
            raise ConfigurationError("remediation attempts are 1-based")
        if attempt > self.max_attempts:
            return None
        seed = base_seed
        if self.reseed:
            # Named-stream derivation keeps the retry deterministic and
            # collision-free against every other consumer of the seed.
            seed = derive_seed(base_seed, "remediation", str(attempt))
        iterations = max(
            base_tune_iterations + 1,
            int(round(base_tune_iterations
                      * self.widen_tune_factor ** attempt)))
        return RemediationStep(attempt=attempt, reason=reason, seed=seed,
                               max_tune_iterations=iterations)
