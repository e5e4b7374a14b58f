"""Bit-identity of block pricing against the object-based core model.

The reference below is a copy of the core model as it priced a block
before its terms were memoised per execution sub-state: every pricing
builds a fresh :class:`BlockTiming`, asks a memoised ``miss_fraction``
for every cache level through a :class:`MemAccessSpec`, and scales the
result through ``BlockTiming.scaled``. Every pricing surface —
:meth:`BlockPricer.row`, :meth:`BlockPricer.price` and
:meth:`CoreModel.time_block` — must reproduce its floats exactly
(``float.hex``) on blocks of every origin and on contexts that differ
in each field a memo could key on.
"""

from typing import Dict, List

import pytest

from repro.hw.branch import BranchPredictorModel
from repro.hw.cache import LINE_BYTES
from repro.hw.core import BlockStatics, BlockTiming, CoreModel
from repro.hw.ir import BlockSpec, MemAccessSpec, MemPattern
from repro.hw.platform import platform_by_name
from repro.hw.topdown import TopDownBreakdown
from repro.runtime.pricing import BlockPricer, PricingKey, timing_row

from tests.test_clone_path_equivalence import _priced_blocks, _pricing_keys

# --------------------------------------------------------------------- #
# the reference: object-based pricing with a memoised miss_fraction
# --------------------------------------------------------------------- #
_REFERENCE_MISS_MEMO: Dict[tuple, float] = {}


def reference_miss_fraction(spec: MemAccessSpec, cache_bytes: float) -> float:
    key = (spec.pattern, spec.wset_bytes, cache_bytes)
    cached = _REFERENCE_MISS_MEMO.get(key)
    if cached is not None:
        return cached
    if cache_bytes <= 0:
        result = 1.0
    elif spec.pattern is MemPattern.RANDOM:
        wset = float(spec.wset_bytes)
        result = float(max(0.0, 1.0 - min(1.0, cache_bytes / wset)))
    else:
        result = 0.0 if float(spec.wset_bytes) <= cache_bytes else 1.0
    _REFERENCE_MISS_MEMO[key] = result
    return result


def _reference_memory(ctx, block, statics, timing) -> float:
    caches = ctx.caches
    stall = 0.0
    lat_l1 = caches.l1d.latency_cycles
    lat_l2 = caches.l2.latency_cycles
    lat_llc = caches.llc.latency_cycles
    lat_mem = caches.memory_latency_cycles
    other_threads = max(0, ctx.active_threads - 1)
    for spec, mlp in zip(block.mem, statics.mem_mlp):
        accesses = spec.accesses
        if accesses <= 0:
            continue
        m1 = reference_miss_fraction(spec, caches.l1d.size_bytes)
        m2 = reference_miss_fraction(spec, caches.l2.size_bytes)
        m3 = reference_miss_fraction(spec, caches.llc.size_bytes)
        f_l2 = m1 * (1.0 - m2) if m1 > 0 else 0.0
        f_llc = m1 * m2 * (1.0 - m3) if m1 * m2 > 0 else 0.0
        f_mem = m1 * m2 * m3
        coh_rate = spec.shared_frac * spec.write_frac * min(1.0, other_threads)
        extra_latency = (
            f_l2 * (lat_l2 - lat_l1)
            + f_llc * (lat_llc - lat_l1)
            + f_mem * (lat_mem - lat_l1)
            + coh_rate * (lat_llc - lat_l1)
        )
        if spec.is_regular:
            extra_latency *= 1.0 - ctx.prefetch_coverage
        stall += accesses * extra_latency / mlp
        timing.l1d_accesses += accesses
        timing.l1d_misses += accesses * (m1 + coh_rate)
        timing.l2_accesses += accesses * m1
        timing.l2_misses += accesses * m1 * m2
        timing.llc_accesses += accesses * (m1 * m2 + coh_rate)
        timing.llc_misses += accesses * m1 * m2 * m3
        timing.memory_bytes += accesses * m1 * m2 * m3 * LINE_BYTES
    return stall


def _reference_frontend(ctx, statics, timing) -> float:
    code_bytes = statics.code_bytes
    if code_bytes <= 0:
        return 0.0
    caches = ctx.caches
    lines = statics.lines
    first_spec = MemAccessSpec(
        wset_bytes=max(64, int(code_bytes + ctx.code_reuse_bytes)),
        accesses=lines, pattern=MemPattern.SEQUENTIAL)
    loop_spec = MemAccessSpec(
        wset_bytes=max(64, int(code_bytes)), accesses=lines,
        pattern=MemPattern.SEQUENTIAL)

    def blended(cache_bytes):
        return (reference_miss_fraction(first_spec, cache_bytes)
                * statics.first_weight
                + reference_miss_fraction(loop_spec, cache_bytes)
                * statics.loop_weight)

    m1 = blended(caches.l1i.size_bytes)
    m2 = min(m1, blended(caches.l2.size_bytes))
    m3 = min(m2, blended(caches.llc.size_bytes))
    miss_l1 = lines * m1
    miss_l2 = lines * m2
    miss_llc = lines * m3
    stall = (
        lines * (m1 - m2) * caches.l2.latency_cycles
        + lines * (m2 - m3) * caches.llc.latency_cycles
        + lines * m3 * caches.memory_latency_cycles
    ) * CoreModel.FETCH_OVERLAP
    timing.l1i_accesses += max(
        1.0, statics.instructions * 4.0 / CoreModel.FETCH_BYTES)
    timing.l1i_misses += miss_l1
    timing.l2_accesses += miss_l1
    timing.l2_misses += miss_l2
    timing.llc_accesses += miss_l2
    timing.llc_misses += miss_llc
    timing.memory_bytes += miss_llc * LINE_BYTES
    return stall


def _reference_branch(ctx, block, timing) -> float:
    predictor = ctx.predictor()
    penalty = ctx.uarch.mispredict_penalty
    pressure = ctx.alias_pressure
    stall = 0.0
    for spec in block.branches:
        if spec.executions <= 0:
            continue
        rate = predictor.rate_for(spec, alias_pressure=pressure)
        misses = spec.executions * rate
        timing.branches += spec.executions
        timing.branch_mispredictions += misses
        stall += misses * penalty
    return stall


def reference_time_block(ctx, block: BlockSpec) -> BlockTiming:
    """The object-based pricing of ``block`` under ``ctx``."""
    statics = BlockStatics(block, ctx.uarch)
    timing = BlockTiming()
    compute_cycles = max(statics.issue_cycles,
                         statics.port_cycles * ctx.smt_contention,
                         statics.dep_cycles)
    mem_stall = _reference_memory(ctx, block, statics, timing)
    fe_stall = _reference_frontend(ctx, statics, timing)
    bs_stall = _reference_branch(ctx, block, timing)
    cycles_per_iter = compute_cycles + mem_stall + fe_stall + bs_stall
    timing.instructions = statics.instructions
    timing.uops = statics.total_uops
    timing.cycles = max(cycles_per_iter, statics.issue_cycles)
    width = ctx.uarch.issue_width
    total_slots = timing.cycles * width
    retiring = min(total_slots, statics.total_uops)
    bad_spec = min(total_slots - retiring, bs_stall * width)
    frontend = min(total_slots - retiring - bad_spec, fe_stall * width)
    backend = max(0.0, total_slots - retiring - bad_spec - frontend)
    timing.topdown = TopDownBreakdown(retiring, frontend, bad_spec, backend)
    return timing.scaled(max(block.iterations, 0.0))


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _hex(values) -> List[str]:
    return [float(value).hex() for value in values]


def _assert_surfaces(pricer: BlockPricer, block: BlockSpec,
                     key: PricingKey) -> None:
    """row, price and time_block all reproduce the reference floats."""
    ctx = pricer.context_for(key)
    expected = _hex(timing_row(reference_time_block(ctx, block)))
    row = pricer.row(block, key)
    assert _hex(pricer.table[row].tolist()) == expected
    assert pricer.row_cycles[row].hex() == expected[0]
    assert _hex(timing_row(pricer.price(block, key))) == expected
    assert _hex(timing_row(CoreModel(ctx).time_block(block))) == expected
    statics = BlockStatics(block, ctx.uarch)
    assert _hex(timing_row(
        CoreModel(ctx).time_block(block, statics))) == expected


def _keys() -> List[PricingKey]:
    """The digest grid's keys plus a one-thread and a crowded key."""
    keys = _pricing_keys()
    for concurrency, sites in ((1, 16), (3, 1 << 20)):
        keys.append(PricingKey.build(
            cold=False, concurrency=concurrency, smt_contention=1.1,
            cache_factors=(0.5, 0.25, 0.12, 0.05),
            code_reuse_bytes=900 * 1024, static_branch_sites=sites))
    return keys


@pytest.fixture(scope="module")
def clone_blocks() -> List[BlockSpec]:
    """The synthetic blocks of a memcached clone."""
    from repro import (CloneRequest, Deployment, DittoCloner,
                       ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_memcached)
    from repro.profiling import ProfilingBudget

    result = DittoCloner(executor="serial").clone(CloneRequest(
        deployment=Deployment.single(build_memcached()),
        load=LoadSpec.open_loop(100_000),
        config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                seed=5),
        fine_tune_tiers=False,
        budget=ProfilingBudget(sampled_requests=8, profile_duration_s=0.015)))
    blocks: List[BlockSpec] = []
    for spec in result.synthetic.services.values():
        blocks.extend(spec.program.all_blocks())
    return blocks


# --------------------------------------------------------------------- #
# the proofs
# --------------------------------------------------------------------- #
class TestPricingMatchesReference:
    @pytest.mark.parametrize("platform", ["A", "C"])
    def test_priced_blocks_grid(self, platform):
        pricer = BlockPricer(platform_by_name(platform))
        for block in _priced_blocks():
            for key in _keys():
                _assert_surfaces(pricer, block, key)

    def test_clone_blocks(self, clone_blocks):
        from repro.isa.instructions import iform

        patterns = {spec.pattern for block in clone_blocks
                    for spec in block.mem}
        assert {MemPattern.SHUFFLED, MemPattern.POINTER_CHASE} <= patterns
        assert any(iform(name).is_rep for block in clone_blocks
                   for name in block.iform_counts)
        pricer = BlockPricer(platform_by_name("A"))
        for block in clone_blocks:
            for key in _keys():
                _assert_surfaces(pricer, block, key)

    def test_prefetch_coverage_other_than_default(self, clone_blocks):
        pricer = BlockPricer(platform_by_name("A"), prefetch_coverage=0.4)
        regular = [b for b in _priced_blocks() + clone_blocks
                   if any(spec.is_regular for spec in b.mem)]
        assert regular
        for block in regular:
            for key in _keys()[:8]:
                _assert_surfaces(pricer, block, key)
                # one statics shared by both coverages: neither may
                # reuse the other's memory terms
                ctx = pricer.context_for(key)
                statics = BlockStatics(block, ctx.uarch)
                for context in (ctx.with_(prefetch_coverage=0.75), ctx):
                    expected = _hex(timing_row(
                        reference_time_block(context, block)))
                    got = CoreModel(context).time_block(block, statics)
                    assert _hex(timing_row(got)) == expected

    def test_context_with_its_own_branch_model(self):
        pricer = BlockPricer(platform_by_name("A"))
        key = _keys()[0]
        ctx = pricer.context_for(key)
        oracle = BranchPredictorModel(ctx.uarch.predictor_history - 4,
                                      seed=99)
        own = ctx.with_(branch_model=oracle)
        blocks = [b for b in _priced_blocks() if b.branches]
        assert blocks
        for block in blocks:
            statics = BlockStatics(block, ctx.uarch)
            # price under the default oracle first, then the context's
            # own, sharing one statics: neither may reuse the other's
            for context in (ctx, own, ctx):
                expected = _hex(timing_row(
                    reference_time_block(context, block)))
                got = CoreModel(context).time_block(block, statics)
                assert _hex(timing_row(got)) == expected

    def test_zero_iteration_block(self):
        pricer = BlockPricer(platform_by_name("A"))
        block = next(b for b in _priced_blocks() if b.mem and b.branches)
        empty = BlockSpec(name="never", iform_counts=dict(block.iform_counts),
                          mem=tuple(block.mem), branches=tuple(block.branches),
                          deps=block.deps, iterations=0.0)
        for key in _keys()[:4]:
            _assert_surfaces(pricer, empty, key)
        assert pricer.price(empty, _keys()[0]).cycles == 0.0


class TestPlatformsNeverShareMemoEntries:
    def test_one_block_under_platforms_a_and_c(self):
        a = BlockPricer(platform_by_name("A"))
        c = BlockPricer(platform_by_name("C"))
        blocks = _priced_blocks()[:40]
        keys = _keys()
        # interleave the platforms pricing the same block objects under
        # equal keys: a memo shared across them would hand one
        # platform's terms to the other
        for block in blocks:
            for key in keys:
                for pricer in (a, c):
                    _assert_surfaces(pricer, block, key)
        for block in blocks:
            statics_a = a._entry(block)[1]
            statics_c = c._entry(block)[1]
            assert statics_a is not statics_c
