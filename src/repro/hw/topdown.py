"""Top-down microarchitectural cycle accounting (Yasin 2014; paper Fig. 2).

Every pipeline slot (``issue_width`` per cycle) is attributed to one of
four top-level buckets: Retiring, Front-end Bound, Bad Speculation, and
Back-end Bound. The paper uses this breakdown both to pick which features
to clone (Fig. 2's IX/BB/IM/DM/DD annotations) and to validate the clones
(Fig. 8's CPI breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


def check_slots(retiring: float, frontend: float, bad_speculation: float,
                backend: float) -> None:
    """Reject a negative slot count (beyond float noise) in any bucket."""
    if (retiring < -1e-9 or frontend < -1e-9 or bad_speculation < -1e-9
            or backend < -1e-9):
        for name, value in (("retiring", retiring), ("frontend", frontend),
                            ("bad_speculation", bad_speculation),
                            ("backend", backend)):
            if value < -1e-9:
                raise ConfigurationError(f"negative slot count for {name}")


@dataclass(frozen=True)
class TopDownBreakdown:
    """Slot counts per top-level top-down bucket."""

    retiring: float
    frontend: float
    bad_speculation: float
    backend: float

    def __post_init__(self) -> None:
        check_slots(self.retiring, self.frontend, self.bad_speculation,
                    self.backend)

    @property
    def total_slots(self) -> float:
        """All issue slots accounted for."""
        return self.retiring + self.frontend + self.bad_speculation + self.backend

    def fractions(self) -> dict:
        """Normalised bucket fractions (empty breakdown -> all zeros)."""
        total = self.total_slots
        if total <= 0.0:
            return {"retiring": 0.0, "frontend": 0.0, "bad_speculation": 0.0,
                    "backend": 0.0}
        return {
            "retiring": self.retiring / total,
            "frontend": self.frontend / total,
            "bad_speculation": self.bad_speculation / total,
            "backend": self.backend / total,
        }

    def cpi_contributions(self, instructions: float, issue_width: int) -> dict:
        """Split CPI into per-bucket contributions (Fig. 8's stacked bars).

        ``CPI = cycles / instructions`` and ``cycles = slots / width``, so
        each bucket's share of slots maps to a share of CPI.
        """
        if instructions <= 0:
            raise ConfigurationError("instructions must be positive")
        if issue_width <= 0:
            raise ConfigurationError("issue_width must be positive")
        return {
            name: slots / issue_width / instructions
            for name, slots in (
                ("retiring", self.retiring),
                ("frontend", self.frontend),
                ("bad_speculation", self.bad_speculation),
                ("backend", self.backend),
            )
        }

    def __add__(self, other: "TopDownBreakdown") -> "TopDownBreakdown":
        # Hot path (one per block-pricing event): sums of validated
        # breakdowns need no re-validation, so skip __init__ entirely.
        result = object.__new__(TopDownBreakdown)
        result.__dict__.update(
            retiring=self.retiring + other.retiring,
            frontend=self.frontend + other.frontend,
            bad_speculation=self.bad_speculation + other.bad_speculation,
            backend=self.backend + other.backend,
        )
        return result

    def scaled(self, factor: float) -> "TopDownBreakdown":
        """All buckets multiplied by ``factor``."""
        if factor < 0:
            raise ConfigurationError("factor must be non-negative")
        return TopDownBreakdown(
            self.retiring * factor,
            self.frontend * factor,
            self.bad_speculation * factor,
            self.backend * factor,
        )

    @staticmethod
    def zero() -> "TopDownBreakdown":
        """An empty breakdown."""
        return TopDownBreakdown(0.0, 0.0, 0.0, 0.0)
