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

from typing import Dict

import numpy as np
import pytest

from repro.hw.branch import GsharePredictor, generate_branch_outcomes
from repro.hw.cache import (
    LINE_BYTES,
    CacheConfig,
    SetAssociativeCache,
    generate_access_stream,
)
from repro.hw.ir import MemAccessSpec, MemPattern
from repro.hw.stackdist import stack_distances
from repro.profiling.wset import reuse_distances
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng
from repro.util.stats import Histogram

PATTERNS = [MemPattern.SEQUENTIAL, MemPattern.STRIDED, MemPattern.RANDOM,
            MemPattern.POINTER_CHASE]


# --------------------------------------------------------------------- #
# scalar references for the vectorized kernels
# --------------------------------------------------------------------- #
class _Fenwick:
    """Prefix-sum tree over positions."""

    def __init__(self, size: int) -> None:
        self._tree = np.zeros(size + 1, dtype=np.int64)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix(self, index: int) -> int:
        """Sum of [0, index)."""
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return int(total)


def reuse_distances_reference(addresses: np.ndarray) -> np.ndarray:
    """Online Fenwick-tree reference for :func:`reuse_distances`."""
    lines = np.asarray(addresses, dtype=np.int64) // LINE_BYTES
    n = len(lines)
    distances = np.full(n, -1, dtype=np.int64)
    tree = _Fenwick(n)
    last_position: Dict[int, int] = {}
    for i in range(n):
        line = int(lines[i])
        previous = last_position.get(line)
        if previous is not None:
            # Distinct lines touched strictly between the two accesses =
            # marked last-occurrence positions in (previous, i).
            distances[i] = tree.prefix(i) - tree.prefix(previous + 1)
            tree.add(previous, -1)
        tree.add(i, +1)
        last_position[line] = i
    return distances


def generate_branch_outcomes_reference(
    taken_rate: float,
    transition_rate: float,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sequential-loop reference for :func:`generate_branch_outcomes`."""
    if length <= 0:
        raise ConfigurationError("stream length must be positive")
    if not 0.0 <= taken_rate <= 1.0 or not 0.0 <= transition_rate <= 1.0:
        raise ConfigurationError("rates must be within [0, 1]")
    p = min(max(taken_rate, 1e-6), 1.0 - 1e-6)
    t = min(transition_rate, 2.0 * min(p, 1.0 - p))
    a = min(1.0, t / (2.0 * p))
    b = min(1.0, t / (2.0 * (1.0 - p)))
    outcomes = np.empty(length, dtype=bool)
    state = rng.random() < p
    randoms = rng.random(length)
    for i in range(length):
        outcomes[i] = state
        flip = randoms[i] < (a if state else b)
        if flip:
            state = not state
    return outcomes


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
    # MongoDB, closed loop: a cold blocking server whose preads the page
    # cache serves; then the same run with a 1 MiB page cache, so preads
    # miss and wait on a saturated disk. Both pinned before the service
    # model's charging moved to the tally log.
    "mongodb_closed_loop":
        "eb63abe67abff0c297a755f1776d9961e8228f92a8b836e71c7442cc2e85b1a4",
    "mongodb_disk_miss":
        "8bcb7c2409970c72e98cba437f3f206872c2e30f1c4380395e83cd73ce297386",
}

# Queue entries each pinned run dispatches (``RunResult.events_dispatched``,
# digest-excluded). A refactor that keeps the digests must keep these
# too; a change to the engine's entry count re-pins them explicitly.
#
# Re-pinned once, digests unchanged, when two kinds of entry that did
# nothing stopped being queued: the idle-server grant (``NOOP``, pushed
# ahead of the device op's own resume) and the completion of the
# process that waited out a cross-node reply's latency (its handle was
# discarded, so nothing ever waited on it). Each new count is the old
# one minus both kinds, counted on the old engine per run:
#
#   run                    old      NOOP  reply completions   new
#   memcached_fault_free   11,686 -  946 -  511             = 10,229
#   gateway_faulted           733 -   59 -   12             =    662
#   memcached_clone_probe  11,419 -  904 -  511             = 10,004
#   socialnet_three_node   63,976 - 6680 - 1620             = 55,676
#   mongodb_closed_loop    58,133 - 3058 - 3057             = 52,018
#   mongodb_disk_miss       5,994 -  569 -  112             =  5,313
#
# Re-pinned again, digests unchanged, when three more kinds of entry
# that nobody could observe stopped being queued: the completion of a
# request's ``_serve`` process and of an open-loop ``_track`` process
# (both now started with ``Environment.spawn``, which returns no
# handle), and the ``done`` event of the ``Store.put`` that enqueued a
# request (``ServiceRuntime.submit`` now uses ``Store.append``). Each
# new count is the previous one minus all three, counted on the
# previous engine per run (one ``_serve`` and one enqueue per request
# served, one ``_track`` per open-loop request issued):
#
#   run                    old      serve   enqueue   track    new
#   memcached_fault_free   10,229 -   511 -     511 -   511 =  8,696
#   gateway_faulted           662 -    36 -      36 -    13 =    577
#   memcached_clone_probe  10,004 -   511 -     511 -   511 =  8,471
#   socialnet_three_node   55,676 - 2,428 -   2,428 -   460 = 50,360
#   mongodb_closed_loop    52,018 - 3,057 -   3,057 -     0 = 45,904
#   mongodb_disk_miss       5,313 -   112 -     112 -     0 =  5,089
REFERENCE_EVENTS = {
    "memcached_fault_free": 8_696,
    "gateway_faulted": 577,
    "memcached_clone_probe": 8_471,
    "socialnet_three_node": 50_360,
    "mongodb_closed_loop": 45_904,
    "mongodb_disk_miss": 5_089,
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


def _metered_run(monkeypatch, deployment, load, config):
    """``run_experiment`` plus what the run asked of each kernel device.

    Runtimes bind ``execute_op``/``transmit_op``/``io_op`` at
    construction, so patching the device classes first meters every
    device op of the run. Returns the result, ``{cpu device name:
    executed cycles}`` and ``{device: ops issued}``.
    """
    from repro.kernelsim.netstack import NicDevice
    from repro.kernelsim.node import DiskDevice
    from repro.kernelsim.scheduler import CpuDevice
    from repro.runtime import run_experiment

    executed = {}
    ops = {}
    execute_op = CpuDevice.execute_op
    transmit_op = NicDevice.transmit_op
    io_op = DiskDevice.io_op

    def metered_execute(self, cycles, switch=None):
        executed[self.name] = executed.get(self.name, 0.0) + cycles
        ops[self] = ops.get(self, 0) + 1
        return execute_op(self, cycles, switch)

    def metered_transmit(self, nbytes):
        ops[self] = ops.get(self, 0) + 1
        return transmit_op(self, nbytes)

    def metered_io(self, nbytes, write=False):
        ops[self] = ops.get(self, 0) + 1
        return io_op(self, nbytes, write)

    with monkeypatch.context() as patch:
        patch.setattr(CpuDevice, "execute_op", metered_execute)
        patch.setattr(NicDevice, "transmit_op", metered_transmit)
        patch.setattr(DiskDevice, "io_op", metered_io)
        return run_experiment(deployment, load, config), executed, ops


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _assert_conserved(result, deployment, executed, ops, platform,
                      aborts=False):
    """Conservation laws every run must satisfy.

    * Every issued request ends in exactly one client outcome, and the
      entry service accounts for each one as served, failed or shed.
    * Per node, the cycles its services charged equal the cycles its CPU
      executed. An aborted handler drops its unflushed cycles, so with
      ``aborts`` the CPU may only have executed less.
    * Per service, the top-down slots cover every cycle at issue width.
    * Per device queue (CPU cores, NIC wire, disk queue and channel), at
      run end no more servers are held than exist, and every op issued
      was granted or still waits. A faulted op can fail before it
      acquires, so with ``aborts`` grants may only fall short.
    """
    from repro.sim import Resource

    issued = result.latency.issued
    assert issued > 0
    assert sum(result.outcome_counts().values()) == issued
    entry = result.services[deployment.entry_service]
    assert (entry.requests + entry.failed_requests
            + entry.shed_requests) == issued
    for node in deployment.node_names():
        charged = sum(result.services[name].timing.cycles
                      for name in deployment.services_on(node))
        ran = executed.get(f"{node}-cpu", 0.0)
        assert charged > 0, node
        if aborts:
            assert charged >= ran * (1 - 1e-12), (node, charged, ran)
        else:
            assert _close(charged, ran), (node, charged, ran)
    width = platform.uarch.issue_width
    for name, metrics in result.services.items():
        timing = metrics.timing
        assert _close(timing.topdown.total_slots, timing.cycles * width), \
            (name, timing.topdown.total_slots, timing.cycles * width)
    assert ops
    for device, issued_ops in ops.items():
        queues = [value for value in vars(device).values()
                  if isinstance(value, Resource)]
        assert queues, device.name
        for queue in queues:
            assert 0 <= queue.in_use <= queue.capacity, queue.name
            settled = queue.total_grants + queue.queue_length
            if aborts:
                assert settled <= issued_ops, (queue.name, settled,
                                               issued_ops)
            else:
                assert settled == issued_ops, (queue.name, settled,
                                               issued_ops)


class TestChargeFoldEquivalence:
    """Folding a charge log equals a chain of ``BlockTiming.__add__``."""

    @staticmethod
    def _table(rng, rows, exponents):
        from repro.runtime.pricing import ROW_WIDTH

        low, high = exponents
        table = (10.0 ** rng.uniform(low, high, size=(rows, ROW_WIDTH))
                 * rng.choice([-1.0, 1.0], size=(rows, ROW_WIDTH)))
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e300]
        mask = rng.random((rows, ROW_WIDTH)) < 0.2
        table[mask] = rng.choice(specials, size=int(mask.sum()))
        return table

    @pytest.mark.parametrize("exponents", [(-300, 300), (-323, -300),
                                           (-3, 3)])
    @pytest.mark.parametrize("start", ["zero", "negative_zero", "random"])
    def test_fold_matches_add_chain(self, exponents, start):
        from repro.hw.core import BlockTiming
        from repro.runtime.metrics import FOLD_CHUNK, ServiceMetrics
        from repro.runtime.pricing import ROW_WIDTH, row_timing, timing_row

        rng = np.random.default_rng([exponents[0] + 400, len(start)])
        table = self._table(rng, 97, exponents)
        log = rng.integers(0, len(table),
                           size=2 * FOLD_CHUNK + 37).tolist()
        initial = {"zero": BlockTiming(),
                   "negative_zero": row_timing([-0.0] * ROW_WIDTH),
                   "random": row_timing(table[0].tolist())}[start]
        expected = initial
        for row in log:
            expected = expected + row_timing(table[row].tolist())
        want = [value.hex() for value in timing_row(expected)]
        # any chunking folds to the same totals, chunk boundaries included
        for chunk in (FOLD_CHUNK, 7, 1):
            metrics = ServiceMetrics(timing=initial)
            for begin in range(0, len(log), chunk):
                metrics.fold(table, log[begin:begin + chunk])
            assert [value.hex() for value in timing_row(metrics.timing)] \
                == want

    def test_folded_metrics_hold_plain_floats(self):
        from repro import (Deployment, ExperimentConfig, LoadSpec,
                           PLATFORM_A, build_mongodb)
        from repro.runtime import run_experiment
        from repro.runtime.pricing import timing_row

        result = run_experiment(
            Deployment.single(build_mongodb()), LoadSpec.closed_loop(4),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=3))
        metrics = result.service("mongodb")
        assert metrics.timing.cycles > 0
        assert all(type(value) is float
                   for value in timing_row(metrics.timing))
        assert all(isinstance(value, (int, float, type(metrics.timing)))
                   for value in vars(metrics).values())


class TestDigestEquivalence:
    def test_memcached_fault_free_digest_unchanged(self, monkeypatch):
        from repro.app.service import Deployment
        from repro.app.workloads import build_memcached
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig

        deployment = Deployment.single(build_memcached())
        result, executed, ops = _metered_run(
            monkeypatch, deployment, LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(result) == \
            REFERENCE_DIGESTS["memcached_fault_free"]
        assert result.events_dispatched == \
            REFERENCE_EVENTS["memcached_fault_free"]
        _assert_conserved(result, deployment, executed, ops, PLATFORM_A)

    def test_faulted_gateway_digests_unchanged(self, monkeypatch):
        from repro.app.workloads.asyncgw import async_gateway_deployment
        from repro.faults import (FaultPlan, FaultWindow, LatencySpikeFault,
                                  NodeCrashFault, PacketLossFault)
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, ResilienceConfig

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
        result, executed, ops = _metered_run(
            monkeypatch, deployment, LoadSpec.open_loop(2_000), config)
        assert _result_digest(result) == REFERENCE_DIGESTS["gateway_faulted"]
        assert result.faults.digest() == \
            REFERENCE_DIGESTS["gateway_fault_timeline"]
        assert result.events_dispatched == REFERENCE_EVENTS["gateway_faulted"]
        _assert_conserved(result, deployment, executed, ops, PLATFORM_A,
                          aborts=True)

    def test_clone_probe_digest_unchanged(self, monkeypatch):
        from repro import (CloneRequest, Deployment, DittoCloner,
                           ExperimentConfig, LoadSpec, build_memcached)
        from repro.hw import PLATFORM_A
        from repro.profiling import ProfilingBudget

        clone = DittoCloner(executor="serial").clone(CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(100_000),
            config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5),
            fine_tune_tiers=True, max_tune_iterations=3,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015)))
        probe, executed, ops = _metered_run(
            monkeypatch, clone.synthetic, LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(probe) == \
            REFERENCE_DIGESTS["memcached_clone_probe"]
        assert probe.events_dispatched == \
            REFERENCE_EVENTS["memcached_clone_probe"]
        _assert_conserved(probe, clone.synthetic, executed, ops, PLATFORM_A)

    def test_socialnet_three_node_digest_unchanged(self, monkeypatch):
        from repro import (ExperimentConfig, LoadSpec, PLATFORM_A,
                           build_social_network, social_network_deployment)

        names = list(build_social_network())
        deployment = social_network_deployment(
            placement={name: f"node{i % 3}" for i, name in enumerate(names)})
        result, executed, ops = _metered_run(
            monkeypatch, deployment, LoadSpec.open_loop(25_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=11))
        assert _result_digest(result) == \
            REFERENCE_DIGESTS["socialnet_three_node"]
        assert result.events_dispatched == \
            REFERENCE_EVENTS["socialnet_three_node"]
        _assert_conserved(result, deployment, executed, ops, PLATFORM_A)

    @pytest.mark.parametrize("pin,page_cache_bytes", [
        ("mongodb_closed_loop", None),
        ("mongodb_disk_miss", 1 << 20),
    ])
    def test_mongodb_digests_unchanged(self, monkeypatch, pin,
                                       page_cache_bytes):
        from repro import (Deployment, ExperimentConfig, LoadSpec,
                           PLATFORM_A, build_mongodb)

        deployment = Deployment.single(build_mongodb())
        result, executed, ops = _metered_run(
            monkeypatch, deployment, LoadSpec.closed_loop(16),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=7,
                             page_cache_bytes=page_cache_bytes))
        assert _result_digest(result) == REFERENCE_DIGESTS[pin]
        assert result.events_dispatched == REFERENCE_EVENTS[pin]
        # the page-cache-hit path, then the miss path that waits on disk
        disk_read = result.service("mongodb").disk_read_bytes
        assert (disk_read > 0) == (page_cache_bytes is not None)
        _assert_conserved(result, deployment, executed, ops, PLATFORM_A)
