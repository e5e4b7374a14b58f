"""Register assignment cloning dependency distances (§4.4.6).

"To assign registers for each instruction, Ditto samples a (RAW, WAR,
WAW) distance tuple from the profiled distributions, and chooses an
available register with the closest distance values."

The allocator walks the generated instruction slots keeping, per
register, the ages of its last write and last read. For each slot it
samples a target tuple and scores every free register by how close the
assignment would land to the targets, then realises the best choice.
It returns both the concrete assignment (for the assembly listing) and
the *realised* dependency profile (for the timing IR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hw.ir import DependencyProfile
from repro.isa.registers import RegisterFile
from repro.profiling.deps import DependencyDistanceProfile
from repro.util.errors import ConfigurationError
from repro.util.stats import Histogram


@dataclass(frozen=True)
class RegisterAssignment:
    """One instruction slot's realised operand registers."""

    index: int
    dest: str
    source: str
    raw_distance: float
    war_distance: float
    waw_distance: float


@dataclass
class AllocationResult:
    """Assignments plus the dependency profile they realise."""

    assignments: List[RegisterAssignment]
    realized: DependencyProfile


def assign_registers(
    slots: int,
    profile: DependencyDistanceProfile,
    rng: np.random.Generator,
    register_file: Optional[RegisterFile] = None,
) -> AllocationResult:
    """Assign destination/source registers for ``slots`` instructions."""
    if slots < 1:
        raise ConfigurationError("need at least one instruction slot")
    rf = register_file if register_file is not None else RegisterFile()
    pool = [reg.name for reg in rf.free_gprs()]
    if len(pool) < 2:
        raise ConfigurationError("register pool too small")
    # Per pool position, the slot of the register's last write / read.
    last_write: List[float] = [-64.0] * len(pool)
    last_read: List[float] = [-64.0] * len(pool)
    assignments: List[RegisterAssignment] = []
    raw_hist: Dict[int, float] = {}
    war_hist: Dict[int, float] = {}
    waw_hist: Dict[int, float] = {}
    edges: Dict[float, int] = {}  # realised distance -> its bin edge
    # One batch of uniforms for the whole allocation: per slot, one draw
    # for each non-empty distribution in (RAW, WAR, WAW) order, the
    # stream three per-slot ``Histogram.sample(rng, 1)`` calls consume.
    # An empty distribution draws nothing and targets its default.
    streams = ((profile.raw, 24.0), (profile.war, 32.0), (profile.waw, 48.0))
    width = sum(1 for counts, _ in streams if counts)
    draws = rng.random(width * slots) if width else None
    targets: List[List[float]] = []
    column = 0
    for counts, default in streams:
        if counts:
            keys = Histogram(dict(counts)).keys_at(draws[column::width])
            targets.append([float(key) for key in keys])
            column += 1
        else:
            targets.append([default] * slots)
    for index, target_raw, target_war, target_waw in zip(
            range(slots), *targets):
        # Source: the register whose last write sits closest to the RAW
        # target distance behind us. ``min`` then ``index`` picks the
        # first register in pool order on a tie.
        scores = [abs((index - write) - target_raw) for write in last_write]
        source = scores.index(min(scores))
        # Destination: balance WAR (since its last read) and WAW (since
        # its last write); never clobber the chosen source.
        scores = [abs((index - read) - target_war)
                  + abs((index - write) - target_waw)
                  for read, write in zip(last_read, last_write)]
        scores[source] = math.inf
        dest = scores.index(min(scores))
        realized_raw = index - last_write[source]
        realized_war = index - last_read[dest]
        realized_waw = index - last_write[dest]
        assignments.append(RegisterAssignment(
            index=index, dest=pool[dest], source=pool[source],
            raw_distance=realized_raw, war_distance=realized_war,
            waw_distance=realized_waw,
        ))
        for hist, value in ((raw_hist, realized_raw),
                            (war_hist, realized_war),
                            (waw_hist, realized_waw)):
            edge = edges.get(value)
            if edge is None:
                edge = edges[value] = DependencyProfile.quantize_distance(
                    max(1.0, value))
            hist[edge] = hist.get(edge, 0.0) + 1.0
        last_read[source] = float(index)
        last_write[dest] = float(index)
    realized = DependencyProfile(
        raw=raw_hist, war=war_hist, waw=waw_hist,
        pointer_chase_frac=profile.pointer_chase_frac,
    )
    return AllocationResult(assignments=assignments, realized=realized)
