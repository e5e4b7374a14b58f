"""Multi-tenancy contention model (§3.4, §6.5).

When applications co-run on a node they share hardware-thread ports,
private caches (via SMT), the LLC (via capacity competition), and the NIC.
This module turns a description of the co-runners into the effective
:class:`~repro.hw.core.ExecutionContext` scaling factors for one target
application, mirroring how the paper's stressors (stress-ng cache/HT
benchmarks, iBench LLC, iperf3) degrade the victim.

The model is capacity-proportional: a cache level shared with a stressor
is split according to footprint pressure, so a victim whose working sets
fit comfortably keeps its share while a cache-hungry victim loses
proportionally — the mechanism by which Ditto clones "react to
interference the same way as the original" (§6.5): identical footprints
imply identical capacity shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class CoRunner:
    """One co-located interfering workload.

    ``level`` names the resource it stresses; ``footprint_bytes`` its
    cache pressure (for cache levels); ``intensity`` in [0, 1] how hard it
    drives the resource; ``same_physical_core`` whether it runs on the SMT
    sibling of the victim (required for L1/L2/port interference).
    """

    level: str                      # "ht" | "l1d" | "l2" | "llc" | "net" | "disk"
    footprint_bytes: float = 0.0
    intensity: float = 1.0
    same_physical_core: bool = False

    def __post_init__(self) -> None:
        if self.level not in ("ht", "l1d", "l2", "llc", "net", "disk"):
            raise ConfigurationError(f"unknown interference level {self.level!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ConfigurationError("intensity must be in [0, 1]")
        if self.footprint_bytes < 0:
            raise ConfigurationError("footprint must be non-negative")


@dataclass(frozen=True)
class ContentionFactors:
    """Multiplicative capacity/throughput factors for the victim."""

    l1i_factor: float = 1.0
    l1d_factor: float = 1.0
    l2_factor: float = 1.0
    llc_factor: float = 1.0
    smt_contention: float = 1.0
    net_share: float = 1.0
    disk_share: float = 1.0


def _capacity_share(victim_bytes: float, stressor_bytes: float) -> float:
    """The victim's share of a cache competed for by footprint."""
    if stressor_bytes <= 0:
        return 1.0
    if victim_bytes <= 0:
        # A victim with no footprint at this level keeps a floor share.
        return 0.5
    return max(0.2, victim_bytes / (victim_bytes + stressor_bytes))


def contention_factors(
    victim_footprint_bytes: float,
    corunners: Iterable[CoRunner],
) -> ContentionFactors:
    """Aggregate contention factors from all co-runners."""
    l1d = l2 = llc = 1.0
    smt = 1.0
    net = 1.0
    disk = 1.0
    for runner in corunners:
        if runner.level == "ht":
            if runner.same_physical_core:
                smt = min(2.0, smt + runner.intensity)
        elif runner.level == "l1d":
            if runner.same_physical_core:
                l1d = min(l1d, max(0.25, 1.0 - 0.5 * runner.intensity))
                smt = min(2.0, smt + 0.3 * runner.intensity)
        elif runner.level == "l2":
            if runner.same_physical_core:
                share = _capacity_share(victim_footprint_bytes,
                                        runner.footprint_bytes)
                l2 = min(l2, max(0.25, share))
                l1d = min(l1d, max(0.5, 1.0 - 0.25 * runner.intensity))
                smt = min(2.0, smt + 0.3 * runner.intensity)
        elif runner.level == "llc":
            share = _capacity_share(victim_footprint_bytes, runner.footprint_bytes)
            llc = min(llc, share)
        elif runner.level == "net":
            net = min(net, max(0.1, 1.0 - 0.5 * runner.intensity))
        elif runner.level == "disk":
            disk = min(disk, max(0.1, 1.0 - 0.5 * runner.intensity))
    return ContentionFactors(
        l1i_factor=min(1.0, l1d + 0.25) if l1d < 1.0 else 1.0,
        l1d_factor=l1d,
        l2_factor=l2,
        llc_factor=llc,
        smt_contention=smt,
        net_share=net,
        disk_share=disk,
    )
