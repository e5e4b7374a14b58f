"""Bit-identity proofs for the simulation fast paths.

The perf work (vectorized cache/branch models, the slotted DES engine,
cached histogram samplers) is only admissible because it changes *no*
observable result. These tests pin that down two ways:

* property tests — the batch/vectorized implementations must agree
  element-for-element (and state-for-state) with their scalar reference
  counterparts across access patterns and random configurations;
* digest-equivalence tests — full experiment runs must reproduce the
  exact result digests captured on the pre-optimization engine, so any
  future "optimization" that perturbs event order, RNG consumption or
  float summation order fails loudly.
"""

import numpy as np
import pytest

from repro.hw.branch import (
    GsharePredictor,
    generate_branch_outcomes,
    generate_branch_outcomes_reference,
)
from repro.hw.cache import CacheConfig, SetAssociativeCache, generate_access_stream
from repro.hw.ir import MemAccessSpec, MemPattern
from repro.hw.stackdist import stack_distances
from repro.profiling.wset import reuse_distances, reuse_distances_reference
from repro.util.rng import make_rng
from repro.util.stats import Histogram

PATTERNS = [MemPattern.SEQUENTIAL, MemPattern.STRIDED, MemPattern.RANDOM,
            MemPattern.POINTER_CHASE]


# --------------------------------------------------------------------- #
# stack distances
# --------------------------------------------------------------------- #
class TestStackDistances:
    def test_matches_reference_on_random_streams(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            lines = rng.integers(0, max(2, n // 2), size=n)
            np.testing.assert_array_equal(
                stack_distances(lines),
                reuse_distances_reference(lines * 64))

    def test_reuse_distances_wrapper_agrees(self):
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 4096, size=1000) * 8
        np.testing.assert_array_equal(
            reuse_distances(addresses),
            reuse_distances_reference(addresses))

    def test_first_touches_are_minus_one(self):
        distances = stack_distances(np.array([5, 9, 5, 9, 5]))
        np.testing.assert_array_equal(distances, [-1, -1, 1, 1, 1])


# --------------------------------------------------------------------- #
# set-associative cache: batch vs scalar
# --------------------------------------------------------------------- #
def _clone_state(cache):
    return [list(ways) for ways in cache._sets]


class TestCacheBatchEquivalence:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_patterns_match_scalar(self, pattern):
        spec = MemAccessSpec(wset_bytes=256 * 1024, accesses=4096,
                             pattern=pattern)
        stream = generate_access_stream(spec, make_rng(3, pattern.name), 4096)
        batch = SetAssociativeCache(CacheConfig("l2", 64 * 1024, 8, 12))
        scalar = SetAssociativeCache(CacheConfig("l2", 64 * 1024, 8, 12))
        hits_batch = batch.access_many(stream)
        hits_scalar = scalar._access_many_scalar(stream)
        assert hits_batch == hits_scalar
        assert (batch.hits, batch.misses) == (scalar.hits, scalar.misses)
        assert _clone_state(batch) == _clone_state(scalar)

    def test_random_configs_and_interleaving(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            assoc = int(rng.choice([1, 2, 4, 8]))
            sets = int(rng.choice([4, 16, 64]))
            cfg = CacheConfig("t", 64 * assoc * sets, assoc, 1)
            batch = SetAssociativeCache(cfg)
            scalar = SetAssociativeCache(cfg)
            # several rounds so the batch path starts from warm state too
            for _ in range(3):
                stream = rng.integers(0, sets * assoc * 4, size=300) * 64
                assert batch.access_many(stream) == \
                    scalar._access_many_scalar(stream)
                # interleave scalar singles between batches
                extra = rng.integers(0, sets * assoc * 4, size=5) * 64
                for address in extra:
                    assert batch.access(int(address)) == \
                        scalar.access(int(address))
            assert (batch.hits, batch.misses) == (scalar.hits, scalar.misses)
            assert _clone_state(batch) == _clone_state(scalar)


# --------------------------------------------------------------------- #
# branch model: vectorized vs scalar
# --------------------------------------------------------------------- #
class TestBranchEquivalence:
    def test_outcome_generation_matches_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            taken = float(rng.uniform(0.0, 1.0))
            transition = float(rng.uniform(0.0, 1.0))
            length = int(rng.integers(1, 300))
            seed = int(rng.integers(0, 2**31))
            fast = generate_branch_outcomes(
                taken, transition, length, np.random.default_rng(seed))
            slow = generate_branch_outcomes_reference(
                taken, transition, length, np.random.default_rng(seed))
            np.testing.assert_array_equal(fast, slow)

    def test_outcome_generation_consumes_same_rng_stream(self):
        fast_rng = np.random.default_rng(99)
        slow_rng = np.random.default_rng(99)
        generate_branch_outcomes(0.6, 0.3, 257, fast_rng)
        generate_branch_outcomes_reference(0.6, 0.3, 257, slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_predictor_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            history_bits = int(rng.integers(1, 14))
            batch_pred = GsharePredictor(history_bits, table_bits=10)
            scalar_pred = GsharePredictor(history_bits, table_bits=10)
            for _ in range(3):
                n = int(rng.integers(1, 200))
                pcs = rng.integers(0, 1 << 20, size=n)
                takens = rng.random(n) < 0.7
                batch_correct = batch_pred.predict_and_update_many(pcs, takens)
                scalar_correct = np.array([
                    scalar_pred.predict_and_update(int(pc), bool(t))
                    for pc, t in zip(pcs, takens)])
                np.testing.assert_array_equal(batch_correct, scalar_correct)
            assert batch_pred._history == scalar_pred._history
            assert batch_pred.predictions == scalar_pred.predictions
            assert batch_pred.mispredictions == scalar_pred.mispredictions
            np.testing.assert_array_equal(batch_pred._table,
                                          scalar_pred._table)


# --------------------------------------------------------------------- #
# histogram sampling: cached CDF vs rng.choice
# --------------------------------------------------------------------- #
class TestHistogramSamplerEquivalence:
    def test_sample_matches_choice_stream(self):
        hist = Histogram({"get": 7.0, "set": 2.0, "del": 1.0})
        keys, probs = hist.keys_and_probs()
        cached = hist.sample(np.random.default_rng(123), size=64)
        reference_rng = np.random.default_rng(123)
        reference = [keys[reference_rng.choice(len(keys), p=probs)]
                     for _ in range(64)]
        assert cached == reference

    def test_add_invalidates_cached_sampler(self):
        hist = Histogram({"a": 1.0})
        assert hist.sample(np.random.default_rng(1), 4) == ["a"] * 4
        hist.add("b", 1e9)
        assert "b" in hist.sample(np.random.default_rng(1), 8)


# --------------------------------------------------------------------- #
# digest equivalence with the pre-optimization engine
# --------------------------------------------------------------------- #
# Reference digests captured from full experiment runs on the commit
# immediately before the perf PR (scalar cache/branch models, the
# proxy-event engine). The optimized stack must reproduce them bit for
# bit: event order, RNG stream consumption and float summation order are
# all load-bearing.
REFERENCE_DIGESTS = {
    "memcached_fault_free":
        "57267ad03685dd8c97418567725cc4c4b580bb373beb2de64c6a0a70f728169c",
    # Re-pinned when the any_of timeout race was fixed: the old values
    # captured every timed RPC losing instantly to its own deadline
    # (error rate 100%), so this resilience-enabled run legitimately
    # changed. The fault-free runs above/below were (and must stay)
    # untouched by that fix.
    "gateway_faulted":
        "6118a0dc9f24130a4c5595d782131aa488389290d18e6c7502c7dd6e78464368",
    "gateway_fault_timeline":
        "405ea31291dd15f022a460fffab9419812f64d81b88d09899684a834b3c58f27",
    "memcached_clone_probe":
        "1012d89ce423a37913c832830d25e077bddca290f388a66b841b6f120e92d018",
    # The only multi-tier pin: 14-tier social network spread round-robin
    # over three nodes, so cross-node RPC fan-out is on the digest path.
    "socialnet_three_node":
        "3cde58baa5c44565f2686d38872d09f2bbfcdebd4eb793e5f27529ab35878c0e",
}


def _result_digest(result):
    from repro.util.spec_hash import stable_digest

    parts = [
        {name: m.snapshot() for name, m in sorted(result.services.items())},
        tuple(result.latency.samples),
        result.outcome_counts(),
        sorted(result.node_utilisation.items()),
        sorted(result.disk_utilisation.items()),
    ]
    if result.faults is not None:
        parts.append(result.faults.digest())
    return stable_digest(*parts)


def _assert_conserved(result, deployment):
    """Every issued request ends in exactly one client outcome, and the
    entry service accounts for each one as served, failed or shed."""
    issued = result.latency.issued
    assert issued > 0
    assert sum(result.outcome_counts().values()) == issued
    entry = result.services[deployment.entry_service]
    assert (entry.requests + entry.failed_requests
            + entry.shed_requests) == issued


class TestDigestEquivalence:
    def test_memcached_fault_free_digest_unchanged(self):
        from repro.app.service import Deployment
        from repro.app.workloads import build_memcached
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, run_experiment

        deployment = Deployment.single(build_memcached())
        result = run_experiment(
            deployment,
            LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(result) == \
            REFERENCE_DIGESTS["memcached_fault_free"]
        _assert_conserved(result, deployment)

    def test_faulted_gateway_digests_unchanged(self):
        from repro.app.workloads.asyncgw import async_gateway_deployment
        from repro.faults import (FaultPlan, FaultWindow, LatencySpikeFault,
                                  NodeCrashFault, PacketLossFault)
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import (ExperimentConfig, ResilienceConfig,
                                   run_experiment)

        plan = FaultPlan((
            PacketLossFault(rate=0.2, retransmit_delay_s=100e-6),
            LatencySpikeFault(extra_s=50e-6, probability=0.5,
                              window=FaultWindow(0.002, 0.006)),
            NodeCrashFault(node="node0", at_s=0.006, downtime_s=0.002),
        ))
        config = ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.01, seed=7, fault_plan=plan,
            resilience=ResilienceConfig(rpc_timeout_s=2e-3,
                                        max_queue_depth=64))
        deployment = async_gateway_deployment()
        result = run_experiment(deployment, LoadSpec.open_loop(2_000), config)
        assert _result_digest(result) == REFERENCE_DIGESTS["gateway_faulted"]
        assert result.faults.digest() == \
            REFERENCE_DIGESTS["gateway_fault_timeline"]
        _assert_conserved(result, deployment)

    def test_clone_probe_digest_unchanged(self):
        from repro import (CloneRequest, Deployment, DittoCloner,
                           ExperimentConfig, LoadSpec, build_memcached)
        from repro.hw import PLATFORM_A
        from repro.profiling import ProfilingBudget
        from repro.runtime import run_experiment

        cloner = DittoCloner(
            fine_tune_tiers=True, max_tune_iterations=3,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            executor="serial")
        clone = cloner.clone(CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(100_000),
            config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5)))
        probe = run_experiment(
            clone.synthetic, LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(probe) == \
            REFERENCE_DIGESTS["memcached_clone_probe"]
        _assert_conserved(probe, clone.synthetic)

    def test_socialnet_three_node_digest_unchanged(self):
        from repro import (ExperimentConfig, LoadSpec, PLATFORM_A,
                           build_social_network, social_network_deployment)
        from repro.runtime import run_experiment

        names = list(build_social_network())
        deployment = social_network_deployment(
            placement={name: f"node{i % 3}" for i, name in enumerate(names)})
        result = run_experiment(
            deployment, LoadSpec.open_loop(25_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=11))
        assert _result_digest(result) == \
            REFERENCE_DIGESTS["socialnet_three_node"]
        assert result.events_dispatched > 0
        _assert_conserved(result, deployment)
