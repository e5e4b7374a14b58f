"""Analytical out-of-order core timing model.

Given a :class:`~repro.hw.ir.BlockSpec` and an :class:`ExecutionContext`
(microarchitecture + effective cache hierarchy + contention state), the
model computes cycles and performance counters for the block, in the
style of a static pipeline analyser crossed with top-down accounting:

- compute-bound cycles: max of issue-width, per-port-group, and
  dependency-chain (ILP) bounds;
- memory stalls: per-working-set miss fractions through the hierarchy,
  divided by achievable memory-level parallelism, minus prefetcher
  coverage for regular patterns;
- frontend stalls: instruction-side working-set behaviour (block footprint
  plus code executed between repeats vs the i-cache);
- bad speculation: measured misprediction rates from the gshare model
  times the microarchitecture's re-steer penalty.

The same model prices both original applications and Ditto's synthetic
clones — differences between the two arise only from how faithfully the
clone's specs reconstruct the original's, which is precisely what the
paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.hw.branch import BranchPredictorModel
from repro.hw.cache import LINE_BYTES, CacheHierarchy, miss_fraction
from repro.hw.ir import BlockSpec, MemPattern
from repro.hw.topdown import TopDownBreakdown, check_slots
from repro.isa.instructions import iform
from repro.isa.ports import PortGroup, UArch
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ExecutionContext:
    """Everything outside the block that shapes its timing.

    - ``caches``: the *effective* hierarchy after contention scaling;
    - ``smt_contention``: 1.0 when the sibling hardware thread is idle,
      up to 2.0 when it saturates the shared ports;
    - ``active_threads``: software threads of this application touching
      shared data (coherence exposure);
    - ``code_reuse_bytes``: i-side bytes executed between two consecutive
      executions of a block (other handlers, kernel code) — the i-cache
      reuse distance;
    - ``static_branch_sites``: total static conditional branches in the
      hot code (BTB/PHT aliasing pressure);
    - ``prefetch_coverage``: fraction of a regular-pattern miss's latency
      the stride prefetcher hides.
    """

    uarch: UArch
    caches: CacheHierarchy
    smt_contention: float = 1.0
    active_threads: int = 1
    code_reuse_bytes: float = 0.0
    static_branch_sites: int = 64
    prefetch_coverage: float = 0.75
    #: True when the thread was just scheduled in after an idle period:
    #: predictor tables/history are polluted by whatever ran in between.
    predictor_cold: bool = False
    branch_model: Optional[BranchPredictorModel] = None

    def __post_init__(self) -> None:
        if not 1.0 <= self.smt_contention <= 2.0:
            raise ConfigurationError("smt_contention must be within [1, 2]")
        if self.active_threads < 1:
            raise ConfigurationError("active_threads must be >= 1")
        if not 0.0 <= self.prefetch_coverage <= 1.0:
            raise ConfigurationError("prefetch_coverage must be in [0, 1]")

    def with_(self, **changes) -> "ExecutionContext":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **changes)

    @property
    def alias_pressure(self) -> float:
        """How saturated the branch predictor tables are, in [0, 1].

        A cold dispatch behaves like heavy aliasing: the intervening code
        overwrote the counters this thread trained.
        """
        pressure = self.static_branch_sites / self.uarch.btb_entries
        if self.predictor_cold:
            pressure += 0.5
        return min(1.0, pressure)

    def predictor(self) -> BranchPredictorModel:
        """The branch misprediction oracle for this context."""
        if self.branch_model is not None:
            return self.branch_model
        return BranchPredictorModel(self.uarch.predictor_history)


@dataclass
class BlockTiming:
    """Cycles and counters for one full execution of a block (all iterations)."""

    cycles: float = 0.0
    instructions: float = 0.0
    uops: float = 0.0
    branches: float = 0.0
    branch_mispredictions: float = 0.0
    l1i_accesses: float = 0.0
    l1i_misses: float = 0.0
    l1d_accesses: float = 0.0
    l1d_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    llc_accesses: float = 0.0
    llc_misses: float = 0.0
    memory_bytes: float = 0.0
    topdown: TopDownBreakdown = field(default_factory=TopDownBreakdown.zero)

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 for an empty block)."""
        if self.cycles <= 0.0:
            return 0.0
        return self.instructions / self.cycles

    def __add__(self, other: "BlockTiming") -> "BlockTiming":
        # Hot path (one per block-pricing event): bypass the 15-keyword
        # dataclass __init__; the field sums are identical.
        result = BlockTiming.__new__(BlockTiming)
        result.__dict__ = {
            "cycles": self.cycles + other.cycles,
            "instructions": self.instructions + other.instructions,
            "uops": self.uops + other.uops,
            "branches": self.branches + other.branches,
            "branch_mispredictions": (
                self.branch_mispredictions + other.branch_mispredictions
            ),
            "l1i_accesses": self.l1i_accesses + other.l1i_accesses,
            "l1i_misses": self.l1i_misses + other.l1i_misses,
            "l1d_accesses": self.l1d_accesses + other.l1d_accesses,
            "l1d_misses": self.l1d_misses + other.l1d_misses,
            "l2_accesses": self.l2_accesses + other.l2_accesses,
            "l2_misses": self.l2_misses + other.l2_misses,
            "llc_accesses": self.llc_accesses + other.llc_accesses,
            "llc_misses": self.llc_misses + other.llc_misses,
            "memory_bytes": self.memory_bytes + other.memory_bytes,
            "topdown": self.topdown + other.topdown,
        }
        return result

    def scaled(self, factor: float) -> "BlockTiming":
        """Every additive quantity multiplied by ``factor``."""
        return BlockTiming(
            cycles=self.cycles * factor,
            instructions=self.instructions * factor,
            uops=self.uops * factor,
            branches=self.branches * factor,
            branch_mispredictions=self.branch_mispredictions * factor,
            l1i_accesses=self.l1i_accesses * factor,
            l1i_misses=self.l1i_misses * factor,
            l1d_accesses=self.l1d_accesses * factor,
            l1d_misses=self.l1d_misses * factor,
            l2_accesses=self.l2_accesses * factor,
            l2_misses=self.l2_misses * factor,
            llc_accesses=self.llc_accesses * factor,
            llc_misses=self.llc_misses * factor,
            memory_bytes=self.memory_bytes * factor,
            topdown=self.topdown.scaled(factor),
        )


class BlockStatics:
    """The terms of a block's pricing that no execution state changes.

    They depend on the block and the core's :class:`UArch` alone, so a
    caller pricing one block under many contexts of one uarch computes
    them once and passes them to every :meth:`CoreModel.time_block`.
    Pinned pricing digests depend on each term's float operations and
    their order; keep both when editing.

    The statics also memoise the two key-dependent components that read
    only a few context fields, per block and so per uarch:
    :attr:`memory` maps the data-side state (cache sizes and latencies,
    ``min(1, other threads)``, prefetch coverage) to the memory stall
    and counters, and :attr:`branch` maps the alias pressure and the
    context's own ``branch_model`` (``None`` for the uarch's default
    oracle) to the branch stall and counters.
    """

    __slots__ = ("total_uops", "issue_cycles", "port_cycles", "dep_cycles",
                 "instructions", "code_bytes", "lines", "loop_wset",
                 "first_weight", "loop_weight", "mem_mlp", "memory",
                 "branch")

    def __init__(self, block: BlockSpec, uarch: UArch) -> None:
        # Compute bound, per iteration: uops per port group, then the
        # issue-width, port and dependency-chain bounds.
        port_uops: Dict[PortGroup, float] = {}
        weighted_latency = 0.0
        for name, count in block.iform_counts.items():
            form = iform(name)
            for group, uops in form.port_uops.items():
                port_uops[group] = port_uops.get(group, 0.0) + uops * count
            if form.is_rep:
                extra = form.rep_uops_per_element * block.rep_elements * count
                port_uops[PortGroup.STRING] = (
                    port_uops.get(PortGroup.STRING, 0.0) + extra)
            weighted_latency += form.latency * count
        self.total_uops = total_uops = sum(port_uops.values())
        self.issue_cycles = total_uops / uarch.issue_width
        port_cycles = 0.0
        for group, uops in port_uops.items():
            port_cycles = max(port_cycles, uarch.group(group).cycles_for(uops))
        #: the port bound before the SMT sibling's scaling
        self.port_cycles = port_cycles
        # Dependency-chain (ILP) bound: with mean RAW distance d, the
        # stream decomposes into ~d independent chains of n/d hops with
        # the mix's average producing latency per hop.
        self.instructions = instructions = block.instructions_per_iteration
        self.dep_cycles = 0.0
        if instructions > 0:
            avg_latency = max(0.5, weighted_latency / instructions)
            distance = max(1.0, block.deps.mean_raw_distance())
            chain_parallelism = min(distance, float(uarch.issue_width) * 2.0)
            self.dep_cycles = instructions * avg_latency / chain_parallelism
        # Instruction side: lines actually fetched per loop pass —
        # instructions lay out densely (4B each, 16 per line), so a pass
        # touches at most instructions/16 lines, capped by the block
        # footprint — and the loop passes' reuse distance, the block
        # body itself (a sequential working set of ``loop_wset`` bytes).
        # Only the first pass's reuse depends on the context.
        self.code_bytes = code_bytes = float(block.static_code_bytes())
        self.lines = self.first_weight = self.loop_weight = 0.0
        self.loop_wset = 0.0
        if code_bytes > 0:
            self.lines = max(1.0, min(code_bytes, 4.0 * max(1.0, instructions))
                             / LINE_BYTES)
            self.loop_wset = float(max(64, int(code_bytes)))
            iterations = max(1.0, block.iterations)
            self.first_weight = 1.0 / iterations
            self.loop_weight = (iterations - 1.0) / iterations
        # Achievable memory-level parallelism of each data access spec:
        # pointer chases serialise at MLP=1; otherwise a harmonic blend —
        # the block's chasing fraction at MLP=1, the rest enjoying the
        # full miss-handling capacity.
        chase = block.deps.pointer_chase_frac
        mshr = float(uarch.mshr_count)
        self.mem_mlp = tuple(
            1.0 if spec.pattern is MemPattern.POINTER_CHASE
            else 1.0 / (chase / 1.0 + (1.0 - chase) / mshr)
            for spec in block.mem)
        #: data-side state -> (stall, l1d accesses, l1d misses, l2
        #: accesses, l2 misses, llc accesses, llc misses, memory bytes)
        self.memory: Dict[tuple, tuple] = {}
        #: (alias pressure, branch model) -> (stall, branches, misses)
        self.branch: Dict[tuple, tuple] = {}


def _sequential_miss(wset: float, cache_bytes: float) -> float:
    """:func:`~repro.hw.cache.miss_fraction` of a sequential working set."""
    return 1.0 if cache_bytes <= 0 or not wset <= cache_bytes else 0.0


class CoreModel:
    """Prices BlockSpecs on an ExecutionContext."""

    #: fraction of an i-miss refill that overlaps with execution
    FETCH_OVERLAP = 0.5
    #: fetch-group width used for L1i access accounting (16B groups)
    FETCH_BYTES = 16

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # memory subsystem
    # ------------------------------------------------------------------ #
    def _memory_terms(self, block: BlockSpec, statics: BlockStatics
                      ) -> tuple:
        """The memory stall and data-side counters (see ``statics.memory``).

        Each counter is summed from 0.0 in spec order, so the frontend's
        terms added afterwards land exactly as when both accumulated
        into one timing.
        """
        caches = self.ctx.caches
        stall = 0.0
        l1d_accesses = l1d_misses = l2_accesses = l2_misses = 0.0
        llc_accesses = llc_misses = memory_bytes = 0.0
        lat_l1 = caches.l1d.latency_cycles
        lat_l2 = caches.l2.latency_cycles
        lat_llc = caches.llc.latency_cycles
        lat_mem = caches.memory_latency_cycles
        other_threads = max(0, self.ctx.active_threads - 1)
        for spec, mlp in zip(block.mem, statics.mem_mlp):
            accesses = spec.accesses
            if accesses <= 0:
                continue
            m1 = miss_fraction(spec, caches.l1d.size_bytes)
            m2 = miss_fraction(spec, caches.l2.size_bytes)
            m3 = miss_fraction(spec, caches.llc.size_bytes)
            # The hierarchy filters: fraction of accesses resolving at each
            # level (m2/m3 conditional on having missed inward levels).
            f_l2 = m1 * (1.0 - m2) if m1 > 0 else 0.0
            f_llc = m1 * m2 * (1.0 - m3) if m1 * m2 > 0 else 0.0
            f_mem = m1 * m2 * m3
            # Coherence misses: shared lines invalidated by other threads'
            # writes surface as extra L1d misses served from the LLC.
            coh_rate = spec.shared_frac * spec.write_frac * min(1.0, other_threads)
            extra_latency = (
                f_l2 * (lat_l2 - lat_l1)
                + f_llc * (lat_llc - lat_l1)
                + f_mem * (lat_mem - lat_l1)
                + coh_rate * (lat_llc - lat_l1)
            )
            if spec.is_regular:
                extra_latency *= 1.0 - self.ctx.prefetch_coverage
            stall += accesses * extra_latency / mlp
            # Counters.
            l1d_accesses += accesses
            l1d_misses += accesses * (m1 + coh_rate)
            l2_accesses += accesses * m1
            l2_misses += accesses * m1 * m2
            llc_accesses += accesses * (m1 * m2 + coh_rate)
            llc_misses += accesses * m1 * m2 * m3
            memory_bytes += accesses * m1 * m2 * m3 * LINE_BYTES
        return (stall, l1d_accesses, l1d_misses, l2_accesses, l2_misses,
                llc_accesses, llc_misses, memory_bytes)

    # ------------------------------------------------------------------ #
    # branches
    # ------------------------------------------------------------------ #
    def _branch_terms(self, block: BlockSpec) -> tuple:
        """The branch stall and counters (see ``statics.branch``)."""
        predictor = self.ctx.predictor()
        penalty = self.ctx.uarch.mispredict_penalty
        pressure = self.ctx.alias_pressure
        stall = branches = mispredictions = 0.0
        for spec in block.branches:
            if spec.executions <= 0:
                continue
            rate = predictor.rate_for(spec, alias_pressure=pressure)
            misses = spec.executions * rate
            branches += spec.executions
            mispredictions += misses
            stall += misses * penalty
        return stall, branches, mispredictions

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def time_block(self, block: BlockSpec,
                   statics: Optional[BlockStatics] = None) -> BlockTiming:
        """Price all iterations of ``block`` under this context.

        ``statics`` are ``block``'s :class:`BlockStatics` on this
        context's uarch, passed by callers that price one block under
        many contexts; computed here when absent. The memory and branch
        components come from the statics' memos when an earlier pricing
        read the same state; the frontend is priced every time.
        """
        ctx = self.ctx
        uarch = ctx.uarch
        if statics is None:
            statics = BlockStatics(block, uarch)
        caches = ctx.caches
        l1d = caches.l1d
        l2 = caches.l2
        llc = caches.llc
        # SMT sibling competes for the same issue ports.
        compute_cycles = max(statics.issue_cycles,
                             statics.port_cycles * ctx.smt_contention,
                             statics.dep_cycles)
        key = (l1d.size_bytes, l2.size_bytes, llc.size_bytes,
               l1d.latency_cycles, l2.latency_cycles, llc.latency_cycles,
               caches.memory_latency_cycles,
               min(1, max(0, ctx.active_threads - 1)),
               ctx.prefetch_coverage)
        memory = statics.memory.get(key)
        if memory is None:
            memory = statics.memory[key] = self._memory_terms(block, statics)
        (mem_stall, l1d_accesses, l1d_misses, l2_accesses, l2_misses,
         llc_accesses, llc_misses, memory_bytes) = memory
        # Frontend / instruction side. Two reuse regimes: the first pass
        # of a visit re-fetches lines last seen one full visit ago
        # (block + everything run in between); subsequent loop passes
        # re-fetch with the block body itself as the reuse distance.
        # Both are sequential working sets, so each level's miss
        # fraction is the all-hit/all-miss closed form.
        fe_stall = 0.0
        l1i_accesses = l1i_misses = 0.0
        lines = statics.lines
        code_bytes = statics.code_bytes
        if code_bytes > 0:
            first_wset = float(max(64, int(code_bytes
                                           + ctx.code_reuse_bytes)))
            loop_wset = statics.loop_wset
            first_weight = statics.first_weight
            loop_weight = statics.loop_weight
            size = caches.l1i.size_bytes
            m1 = (_sequential_miss(first_wset, size) * first_weight
                  + _sequential_miss(loop_wset, size) * loop_weight)
            size = l2.size_bytes
            m2 = min(m1, _sequential_miss(first_wset, size) * first_weight
                     + _sequential_miss(loop_wset, size) * loop_weight)
            size = llc.size_bytes
            m3 = min(m2, _sequential_miss(first_wset, size) * first_weight
                     + _sequential_miss(loop_wset, size) * loop_weight)
            miss_l1 = lines * m1
            miss_l2 = lines * m2
            miss_llc = lines * m3
            # Fetches resolve at the first level they hit: (m1-m2) of the
            # lines stop at L2, (m2-m3) at the LLC, m3 go to memory.
            fe_stall = (
                lines * (m1 - m2) * l2.latency_cycles
                + lines * (m2 - m3) * llc.latency_cycles
                + lines * m3 * caches.memory_latency_cycles
            ) * self.FETCH_OVERLAP
            l1i_accesses = max(
                1.0, statics.instructions * 4.0 / self.FETCH_BYTES)
            l1i_misses = miss_l1
            l2_accesses += miss_l1
            l2_misses += miss_l2
            llc_accesses += miss_l2
            llc_misses += miss_llc
            memory_bytes += miss_llc * LINE_BYTES
        key = (ctx.alias_pressure, ctx.branch_model)
        branch = statics.branch.get(key)
        if branch is None:
            branch = statics.branch[key] = self._branch_terms(block)
        bs_stall, branches, mispredictions = branch
        cycles_per_iter = compute_cycles + mem_stall + fe_stall + bs_stall
        total_uops = statics.total_uops
        cycles = max(cycles_per_iter, statics.issue_cycles)
        width = uarch.issue_width
        total_slots = cycles * width
        retiring = min(total_slots, total_uops)
        bad_spec = min(total_slots - retiring, bs_stall * width)
        frontend = min(total_slots - retiring - bad_spec, fe_stall * width)
        backend = max(0.0, total_slots - retiring - bad_spec - frontend)
        check_slots(retiring, frontend, bad_spec, backend)
        # All iterations: every quantity times the iteration count, built
        # directly rather than through the dataclass initialisers.
        n = max(block.iterations, 0.0)
        if n < 0:
            raise ConfigurationError("factor must be non-negative")
        topdown = object.__new__(TopDownBreakdown)
        topdown.__dict__.update(retiring=retiring * n, frontend=frontend * n,
                                bad_speculation=bad_spec * n,
                                backend=backend * n)
        check_slots(retiring * n, frontend * n, bad_spec * n, backend * n)
        timing = BlockTiming.__new__(BlockTiming)
        timing.__dict__ = {
            "cycles": cycles * n,
            "instructions": statics.instructions * n,
            "uops": total_uops * n,
            "branches": branches * n,
            "branch_mispredictions": mispredictions * n,
            "l1i_accesses": l1i_accesses * n,
            "l1i_misses": l1i_misses * n,
            "l1d_accesses": l1d_accesses * n,
            "l1d_misses": l1d_misses * n,
            "l2_accesses": l2_accesses * n,
            "l2_misses": l2_misses * n,
            "llc_accesses": llc_accesses * n,
            "llc_misses": llc_misses * n,
            "memory_bytes": memory_bytes * n,
            "topdown": topdown,
        }
        return timing
