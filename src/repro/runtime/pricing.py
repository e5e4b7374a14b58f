"""Block pricing with execution-state bucketing.

Pricing a block through the analytical core model is cheap but not free
(the branch oracle runs Monte-Carlo simulations on first use), and a run
executes the same blocks hundreds of thousands of times. The pricer
memoises every (block, quantised execution state) pricing as one dense
row of a float table: concurrency is bucketed to powers of two and
cache/SMT factors to two decimals, so timing still responds to load,
colocation and interference while repeats cost a lookup. Distinct
pricings still number in the thousands on multi-tier runs — 5,735 in
one second of the 4-node social network at 4k qps, 9,795 in one clone
of it — because each tier's and node's concurrency buckets cross with
the 64 KiB code-reuse steps of cold dispatches, and every (block,
state) pair is priced once. A pricing's block-only terms
(:class:`~repro.hw.core.BlockStatics`) are therefore computed once per
block, not once per state. The service model charges a block by
logging its row index; :meth:`repro.runtime.metrics.ServiceMetrics.fold`
later sums logged rows into counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.core import (
    BlockStatics,
    BlockTiming,
    CoreModel,
    ExecutionContext,
)
from repro.hw.ir import BlockSpec
from repro.hw.platform import PlatformSpec
from repro.hw.topdown import TopDownBreakdown
from repro.util.errors import ConfigurationError
from repro.util.quantize import next_pow2

#: the scalar :class:`BlockTiming` fields, in row-column order
TIMING_FIELDS = (
    "cycles", "instructions", "uops", "branches", "branch_mispredictions",
    "l1i_accesses", "l1i_misses", "l1d_accesses", "l1d_misses",
    "l2_accesses", "l2_misses", "llc_accesses", "llc_misses",
    "memory_bytes",
)
#: the top-down buckets, in the columns after :data:`TIMING_FIELDS`
TOPDOWN_FIELDS = ("retiring", "frontend", "bad_speculation", "backend")
#: columns of a pricing row
ROW_WIDTH = len(TIMING_FIELDS) + len(TOPDOWN_FIELDS)

_timing_values = attrgetter(*TIMING_FIELDS)
_topdown_values = attrgetter(*TOPDOWN_FIELDS)


def timing_row(timing: BlockTiming) -> List[float]:
    """``timing`` flattened into one pricing row."""
    return [*_timing_values(timing), *_topdown_values(timing.topdown)]


def row_timing(row: Sequence[float]) -> BlockTiming:
    """The :class:`BlockTiming` a pricing row (of Python floats) encodes.

    Like :meth:`BlockTiming.__add__`, this skips the dataclass
    initialisers: rows only ever hold prices and sums of prices, which
    were validated when they were first built.
    """
    topdown = object.__new__(TopDownBreakdown)
    topdown.__dict__.update(zip(TOPDOWN_FIELDS, row[len(TIMING_FIELDS):]))
    timing = BlockTiming.__new__(BlockTiming)
    timing.__dict__ = dict(zip(TIMING_FIELDS, row), topdown=topdown)
    return timing


def code_reuse_steps(code_reuse_bytes: float) -> int:
    """Code reuse in the 64 KiB steps a :class:`PricingKey` keeps.

    Fine enough to keep cache-boundary distinctions (a 680KB reuse must
    stay below a 1MB L2 and above a 256KB one), coarse enough to memoise
    well.
    """
    return max(1, round(code_reuse_bytes / 1024 / 64))


@dataclass(frozen=True)
class PricingKey:
    """Quantised execution state a pricing is valid for.

    A first pricing looks its key up several times (the pricer's row
    memo, its context cache), so the key hashes its fields once.
    """

    cold: bool
    concurrency_bucket: int
    smt_contention: float
    l1i_factor: float
    l1d_factor: float
    l2_factor: float
    llc_factor: float
    code_reuse_kb: int
    static_branch_sites: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((
            self.cold, self.concurrency_bucket, self.smt_contention,
            self.l1i_factor, self.l1d_factor, self.l2_factor,
            self.llc_factor, self.code_reuse_kb, self.static_branch_sites)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(
        cold: bool,
        concurrency: int,
        smt_contention: float,
        cache_factors: Tuple[float, float, float, float],
        code_reuse_bytes: float,
        static_branch_sites: int,
    ) -> "PricingKey":
        """Quantise raw state into a cache-friendly key."""
        if concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        l1i, l1d, l2, llc = cache_factors
        return PricingKey(
            cold=cold,
            concurrency_bucket=next_pow2(concurrency),
            smt_contention=round(smt_contention, 2),
            l1i_factor=round(l1i, 2),
            l1d_factor=round(l1d, 2),
            l2_factor=round(l2, 2),
            llc_factor=round(llc, 2),
            code_reuse_kb=64 * code_reuse_steps(code_reuse_bytes),
            static_branch_sites=next_pow2(max(1, static_branch_sites)),
        )


class BlockPricer:
    """Memoised CoreModel frontend for one platform/frequency.

    Each distinct (block, key) pricing gets one dense row index. Rows
    live in :attr:`table`, one column per :data:`TIMING_FIELDS` scalar
    and then per :data:`TOPDOWN_FIELDS` bucket; the table grows by
    doubling, so read it through the pricer rather than holding the
    array. :attr:`row_cycles` repeats each row's cycles as a plain list
    for the charging loop.

    The pricer holds every block it has priced, next to the block's
    :class:`~repro.hw.core.BlockStatics`, for its own lifetime. Memos
    keyed on ``id(block)`` — its own and the service runtime's — stay
    valid because no priced block can be freed and its id reused by a
    new block.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        frequency_ghz: Optional[float] = None,
        prefetch_coverage: float = 0.75,
    ) -> None:
        self.platform = platform
        self.frequency_ghz = (
            frequency_ghz if frequency_ghz is not None
            else platform.base_frequency_ghz
        )
        self.prefetch_coverage = prefetch_coverage
        self._base_hierarchy = platform.hierarchy(self.frequency_ghz)
        #: id(block) -> (block, its statics, {key: row})
        self._blocks: Dict[int, Tuple[BlockSpec, BlockStatics,
                                      Dict[PricingKey, int]]] = {}
        self.table = np.zeros((64, ROW_WIDTH))
        self.row_cycles: List[float] = []
        self._context_cache: Dict[PricingKey, ExecutionContext] = {}

    def context_for(self, key: PricingKey) -> ExecutionContext:
        """The ExecutionContext realising a pricing key."""
        ctx = self._context_cache.get(key)
        if ctx is not None:
            return ctx
        caches = self._base_hierarchy.with_effective_sizes(
            l1i_factor=key.l1i_factor,
            l1d_factor=key.l1d_factor,
            l2_factor=key.l2_factor,
            llc_factor=key.llc_factor,
        )
        ctx = ExecutionContext(
            uarch=self.platform.uarch,
            caches=caches,
            smt_contention=key.smt_contention,
            active_threads=key.concurrency_bucket,
            code_reuse_bytes=float(key.code_reuse_kb * 1024),
            static_branch_sites=key.static_branch_sites,
            prefetch_coverage=self.prefetch_coverage,
            predictor_cold=key.cold,
        )
        self._context_cache[key] = ctx
        return ctx

    def _entry(self, block: BlockSpec
               ) -> Tuple[BlockSpec, BlockStatics, Dict[PricingKey, int]]:
        entry = self._blocks.get(id(block))
        if entry is None:
            entry = self._blocks[id(block)] = (
                block, BlockStatics(block, self.platform.uarch), {})
        return entry

    def row(self, block: BlockSpec, key: PricingKey) -> int:
        """Row index of ``block`` under state ``key``, pricing it once."""
        row = self._entry(block)[2].get(key)
        if row is None:
            self.price(block, key)
            row = len(self.row_cycles) - 1
        return row

    def price(self, block: BlockSpec, key: PricingKey) -> BlockTiming:
        """Memoised timing of ``block`` under state ``key``.

        A first pricing runs the core model on the block's statics and
        appends a row; a repeat rebuilds an equal timing from that row.
        """
        _, statics, rows = self._entry(block)
        row = rows.get(key)
        if row is not None:
            return row_timing(self.table[row].tolist())
        timing = CoreModel(self.context_for(key)).time_block(block, statics)
        row = len(self.row_cycles)
        if row == len(self.table):
            grown = np.zeros((2 * row, ROW_WIDTH))
            grown[:row] = self.table
            self.table = grown
        self.table[row] = timing_row(timing)
        self.row_cycles.append(timing.cycles)
        rows[key] = row
        return timing

    def seconds(self, cycles: float) -> float:
        """Convert cycles to seconds at the pricer's frequency."""
        return self.platform.cycles_to_seconds(cycles, self.frequency_ghz)
