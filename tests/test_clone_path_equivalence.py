"""Bit-identity proofs for the clone critical path.

Several per-tier computations are done once instead of many times, and
profiles keep what their readers read instead of raw observations:

* the profiler keeps one table of distinct thread call-tree shapes and
  one (shape number, connections, trigger, short-lived) record per
  observation, and thread clustering memoises the tree-edit distance
  per pair of shape numbers;
* average-linkage clustering keeps a cluster-pair linkage matrix and
  recomputes only the merged cluster's row and column;
* register assignment draws every distance target of an allocation in
  one batch;
* the core model computes each block's key-independent pricing terms
  once per block;
* the profiler keeps the sampled instruction stream as a per-iform
  table (count, REP sum, REP samples) instead of the raw samples;
* the profiler reduces each sampled address trace to its working-set
  statistics as it collects it, and tallies each branch site's rate bin
  and weighted taken and transition rates as it measures them;
* the profiler tallies each sampled dependency tuple into per-kind
  distance-bin counts and a pointer-chase count as it draws it;
* the profiler collects each tier's artifacts in a worker pool, in any
  order;
* the tier stage reuses the service the fine tuner generated for the
  knobs it chose instead of generating it again.

Each must change no result. The references below are copies of the
code paths they replaced, kept here (not in ``src/``) as the oracle;
the raw observations they reduce are replayed from the profiler's own
draws, and the pricing digest was captured with the per-call core
model.
"""

import copy
import dataclasses
import gc
import hashlib
import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.clustering import agglomerative_cluster
from repro.analysis.treedit import CallTree, normalized_tree_distance
from repro.core.features import LARGE_REGION_BYTES, extract_service_features
from repro.core.regalloc import (
    AllocationResult,
    RegisterAssignment,
    assign_registers,
)
from repro.hw.branch import generate_branch_outcomes
from repro.hw.ir import DEP_DISTANCE_BINS, DependencyProfile
from repro.analysis.clustering import hierarchical_feature_clusters
from repro.isa.instructions import feature_vector, iform
from repro.isa.registers import RegisterFile
from repro.profiling import collector
from repro.profiling.artifacts import (
    BranchTally,
    ServiceArtifacts,
    ThreadObservation,
)
from repro.hw.cache import LINE_BYTES
from repro.profiling.branches import BranchProfile, RateBin, profile_branches
from repro.profiling.deps import (
    DependencyDistanceProfile,
    profile_dependencies,
)
from repro.profiling.instmix import (
    CLUSTER_THRESHOLD as MIX_CLUSTER_THRESHOLD,
    InstructionMixProfile,
    profile_instruction_mix,
)
from repro.profiling.threads import (
    CLUSTER_THRESHOLD,
    ReconstructedThreadClass,
    ThreadModelProfile,
    _classify_role,
    _tree_labels,
    profile_thread_model,
)
from repro.profiling.wset import (
    WorkingSetProfile,
    invert_data_hits,
    invert_instruction_hits,
    regularity_ratio,
    reuse_distances,
    shared_ratio,
)
from repro.util.quantize import LogScaleQuantizer, bin_index, pow2_bins
from repro.util.spec_hash import stable_digest
from repro.util.stats import Histogram


# --------------------------------------------------------------------- #
# thread clustering: all-pairs reference over per-observation call trees
# --------------------------------------------------------------------- #
@dataclass
class ReferenceThread:
    """One observed thread as profiles used to carry it: its own call
    tree plus the kernel-event evidence."""

    call_tree: CallTree
    spawned_by_clone: bool
    lifetime_fraction: float
    wakeup_trigger: str
    connections_at_observation: int


def reference_thread_model(observations: List[ReferenceThread],
                           ) -> ThreadModelProfile:
    """The all-pairs :func:`profile_thread_model` over per-observation
    call trees: one tree-edit distance per pair of observations."""
    clusters = agglomerative_cluster(
        observations,
        distance=lambda a, b: normalized_tree_distance(a.call_tree,
                                                       b.call_tree),
        threshold=CLUSTER_THRESHOLD,
    )
    connection_settings = sorted(
        {obs.connections_at_observation for obs in observations})
    profile = ThreadModelProfile()
    for index, cluster in enumerate(clusters):
        representative: ReferenceThread = cluster[0]
        labels = _tree_labels(representative.call_tree)
        trigger_votes: Dict[str, int] = {}
        for obs in cluster:
            trigger_votes[obs.wakeup_trigger] = (
                trigger_votes.get(obs.wakeup_trigger, 0) + 1)
        trigger = max(trigger_votes, key=trigger_votes.get)
        role = _classify_role(labels, trigger)
        counts_by_setting = {
            setting: sum(1 for obs in cluster
                         if obs.connections_at_observation == setting)
            for setting in connection_settings
        }
        scales = False
        if len(connection_settings) >= 2 and role == "worker":
            low, high = connection_settings[0], connection_settings[-1]
            low_count = counts_by_setting.get(low, 0)
            high_count = counts_by_setting.get(high, 0)
            if low_count > 0 and high_count > low_count:
                scales = (high_count / low_count
                          > 0.5 * (high / max(1, low)))
        count = counts_by_setting.get(connection_settings[-1], len(cluster))
        short_lived = (
            sum(1 for obs in cluster if obs.spawned_by_clone
                and obs.lifetime_fraction < 0.95) > len(cluster) / 2
        )
        profile.classes.append(ReconstructedThreadClass(
            name=f"class_{index}",
            role=role,
            count=max(1, count),
            scales_with_connections=scales,
            trigger=trigger,
            short_lived=short_lived,
        ))
    return profile


def _class_fields(profile: ThreadModelProfile):
    return [(cls.name, cls.role, cls.count, cls.scales_with_connections,
             cls.trigger, cls.short_lived)
            for cls in profile.classes]


def _shape(tree: CallTree):
    return (tree.label, tuple(_shape(child) for child in tree.children))


def _copy_tree(tree: CallTree) -> CallTree:
    return CallTree(tree.label, [_copy_tree(c) for c in tree.children])


def _reduce_threads(service: str,
                    observations: List[ReferenceThread]) -> ServiceArtifacts:
    """The observations as profiles store them: the distinct call-tree
    shapes in first-seen order, and one record per observation."""
    artifacts = ServiceArtifacts(service=service)
    numbers: Dict[tuple, int] = {}
    for obs in observations:
        key = _shape(obs.call_tree)
        if key not in numbers:
            numbers[key] = len(artifacts.thread_shapes)
            artifacts.thread_shapes.append(_copy_tree(obs.call_tree))
        artifacts.threads.append(ThreadObservation(
            shape=numbers[key],
            connections=obs.connections_at_observation,
            trigger=obs.wakeup_trigger,
            short_lived=(obs.spawned_by_clone
                         and obs.lifetime_fraction < 0.95)))
    return artifacts


def _threads_match(artifacts: ServiceArtifacts,
                   observations: List[ReferenceThread]) -> bool:
    """Whether the shape table and records are the observations'
    reduction, and cluster into the all-pairs reference's classes."""
    reduced = _reduce_threads(artifacts.service, observations)
    return (artifacts.thread_shapes == reduced.thread_shapes
            and artifacts.threads == reduced.threads
            and _class_fields(profile_thread_model(artifacts))
            == _class_fields(reference_thread_model(observations)))


def _recording_thread_prober(found: Dict[str, List[ReferenceThread]]):
    """:func:`collector._observe_threads`, also logging each observation
    with its own call tree (replayed on a copy of the profiler's
    generator, as the per-observation collector drew them)."""
    observe = collector._observe_threads

    def recording(spec, connections, rng, artifacts):
        replay = copy.deepcopy(rng)
        observed = found.setdefault(artifacts.service, [])
        for cls in spec.skeleton.thread_classes:
            if cls.role == "worker":
                count = (min(connections, spec.skeleton.max_connections)
                         if cls.scales_with_connections else cls.count)
            else:
                count = cls.count
            for _ in range(max(1, count)):
                if cls.role == "worker":
                    tree = collector._call_tree_for_worker(spec)
                elif cls.role == "acceptor":
                    tree = CallTree.from_nested(
                        ("thread_loop",
                         [(spec.skeleton.wait_syscall(), []),
                          ("accept", []), ("epoll_ctl", [])]))
                else:
                    tree = CallTree.from_nested(
                        ("thread_loop",
                         [("nanosleep", []),
                          (f"fn_{int(replay.integers(0, 99991)):05d}",
                           [])]))
                if replay.random() < 0.2:
                    tree.add(CallTree("gettimeofday"))
                observed.append(ReferenceThread(
                    call_tree=tree,
                    spawned_by_clone=cls.scales_with_connections,
                    lifetime_fraction=(
                        1.0 if not cls.scales_with_connections
                        else float(replay.uniform(0.6, 1.0))),
                    wakeup_trigger=cls.trigger.value,
                    connections_at_observation=connections,
                ))
        observe(spec, connections, rng, artifacts)

    return recording


def _counting_treedit(monkeypatch):
    """Count :func:`tree_edit_distance` runs (the memo's miss path)."""
    import repro.analysis.treedit as treedit

    calls = [0]
    original = treedit.tree_edit_distance

    def counted(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(treedit, "tree_edit_distance", counted)
    return calls


@pytest.fixture(scope="module")
def socialnet_threads():
    """Smoke-scale profile of the 4-node social network: ``[(artifacts,
    observations with their call trees)]`` per tier."""
    from repro import (ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_social_network, social_network_deployment)
    from repro.profiling import ProfilingBudget, profile_deployment

    names = list(build_social_network())
    deployment = social_network_deployment(
        placement={name: f"node{i % 4}" for i, name in enumerate(names)})
    observed: Dict[str, List[ReferenceThread]] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collector, "_observe_threads",
                      _recording_thread_prober(observed))
        profile = profile_deployment(
            deployment, LoadSpec.open_loop(2_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.05, seed=7),
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            seed=7)
    return [(profile.artifacts(name), observed[name]) for name in names]


def _random_tree(rng, depth=0) -> CallTree:
    labels = ["epoll_wait", "accept", "recv", "send", "nanosleep", "read",
              "write", "futex", "parse", "lookup"]
    tree = CallTree(str(rng.choice(labels)))
    if depth < 3:
        for _ in range(int(rng.integers(0, 4 - depth))):
            tree.add(_random_tree(rng, depth + 1))
    return tree


def _duplicate_heavy_threads(seed: int, shapes: int,
                             threads: int) -> List[ReferenceThread]:
    """Many observations over a few shapes; every tree a fresh object."""
    rng = np.random.default_rng(seed)
    pool = [_random_tree(rng) for _ in range(shapes)]
    return [
        ReferenceThread(
            call_tree=_copy_tree(pool[int(rng.integers(0, shapes))]),
            spawned_by_clone=bool(rng.random() < 0.5),
            lifetime_fraction=float(rng.choice([0.3, 0.9, 1.0])),
            wakeup_trigger=str(rng.choice(["socket", "timer", "condvar"])),
            connections_at_observation=int(rng.choice([16, 32])),
        )
        for _ in range(threads)]


class TestThreadModelEquivalence:
    def test_socialnet_profile_matches_all_pairs(self, socialnet_threads,
                                                 monkeypatch):
        calls = _counting_treedit(monkeypatch)
        for artifacts, observed in socialnet_threads:
            calls[0] = 0
            profile_thread_model(artifacts)
            assert calls[0] <= len(artifacts.thread_shapes) ** 2, \
                artifacts.service
            assert _threads_match(artifacts, observed), artifacts.service

    @pytest.mark.parametrize("seed,shapes,threads", [
        (1, 1, 12), (2, 3, 50), (3, 5, 80), (4, 8, 40), (5, 2, 3),
    ])
    def test_duplicate_heavy_observations(self, seed, shapes, threads,
                                          monkeypatch):
        observed = _duplicate_heavy_threads(seed, shapes, threads)
        artifacts = _reduce_threads(f"synthetic-{seed}", observed)
        want = _class_fields(reference_thread_model(observed))
        calls = _counting_treedit(monkeypatch)
        assert _class_fields(profile_thread_model(artifacts)) == want
        assert calls[0] <= len(artifacts.thread_shapes) ** 2

    def test_permuted_tables_fail_the_comparison(self, socialnet_threads):
        several = [(artifacts, observed)
                   for artifacts, observed in socialnet_threads
                   if len(artifacts.thread_shapes) >= 2]
        assert several
        changed_classes = set()
        for artifacts, observed in several:
            for permuted in (
                    dataclasses.replace(
                        artifacts,
                        thread_shapes=artifacts.thread_shapes[::-1]),
                    dataclasses.replace(
                        artifacts, threads=artifacts.threads[::-1])):
                assert not _threads_match(permuted, observed), \
                    artifacts.service
                if (_class_fields(profile_thread_model(permuted))
                        != _class_fields(profile_thread_model(artifacts))):
                    changed_classes.add(artifacts.service)
        # The classes themselves depend on both orders, not only the
        # table comparison.
        assert changed_classes


# --------------------------------------------------------------------- #
# average linkage: all-pairs-per-merge reference
# --------------------------------------------------------------------- #
def reference_agglomerative(items, distance, threshold, merges=None):
    """:func:`agglomerative_cluster` recomputing every cluster pair's
    average linkage on every merge; appends each merge to ``merges``."""
    import math

    items = list(items)
    if not items:
        return []
    n = len(items)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = float(distance(items[i], items[j]))
    clusters = [[i] for i in range(n)]

    def average_linkage(a, b):
        total = sum(dist[i][j] for i in a for j in b)
        return total / (len(a) * len(b))

    while len(clusters) > 1:
        best = None
        best_distance = math.inf
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                d = average_linkage(clusters[x], clusters[y])
                if d < best_distance:
                    best_distance = d
                    best = (x, y)
        if best is None or best_distance > threshold:
            break
        x, y = best
        if merges is not None:
            merges.append((best_distance, list(clusters[x]),
                           list(clusters[y])))
        clusters[x] = clusters[x] + clusters[y]
        del clusters[y]
    return [[items[i] for i in cluster] for cluster in clusters]


class TestAverageLinkageEquivalence:
    @staticmethod
    def _matrix(seed: int, ties: bool):
        rng = np.random.default_rng([seed, ties])
        n = int(rng.integers(2, 28))
        if ties:
            values = rng.choice([0.0, 0.1, 0.25, 0.25, 0.5, 0.7, 1.0],
                                size=(n, n))
        else:
            values = rng.random((n, n))
        return [[float(values[min(i, j)][max(i, j)]) for j in range(n)]
                for i in range(n)]

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_same_clusters_and_merge_order(self, seed, ties):
        matrix = self._matrix(seed, ties)
        items = list(range(len(matrix)))

        def distance(i, j):
            return matrix[i][j]

        merges = []
        full = reference_agglomerative(items, distance, math.inf, merges)
        assert agglomerative_cluster(items, distance, math.inf) == full
        # Stopping at, or just below, each merge's linkage pins where
        # the memoised loop stops: the merge sequence and every cluster
        # (members in merge order) along the way.
        thresholds = {0.0, 0.5}
        for linkage, _, _ in merges:
            thresholds.update((linkage, math.nextafter(linkage, -1.0)))
        for threshold in sorted(t for t in thresholds if t >= 0):
            assert agglomerative_cluster(items, distance, threshold) == \
                reference_agglomerative(items, distance, threshold), \
                threshold


# --------------------------------------------------------------------- #
# register assignment: per-slot reference
# --------------------------------------------------------------------- #
def _reference_sample_from(hist: Optional[Histogram],
                           rng: np.random.Generator,
                           default: float) -> float:
    if hist is None:
        return default
    return float(hist.sample(rng, 1)[0])


def reference_assign_registers(slots, profile, rng,
                               register_file=None) -> AllocationResult:
    """The per-slot :func:`assign_registers`: three one-draw samples
    per instruction slot."""
    rf = register_file if register_file is not None else RegisterFile()
    pool = [reg.name for reg in rf.free_gprs()]
    last_write: Dict[str, float] = {name: -64.0 for name in pool}
    last_read: Dict[str, float] = {name: -64.0 for name in pool}
    assignments: List[RegisterAssignment] = []
    raw_hist: Dict[int, float] = {}
    war_hist: Dict[int, float] = {}
    waw_hist: Dict[int, float] = {}
    raw_sampler = Histogram(dict(profile.raw)) if profile.raw else None
    war_sampler = Histogram(dict(profile.war)) if profile.war else None
    waw_sampler = Histogram(dict(profile.waw)) if profile.waw else None
    for index in range(slots):
        target_raw = _reference_sample_from(raw_sampler, rng, default=24.0)
        target_war = _reference_sample_from(war_sampler, rng, default=32.0)
        target_waw = _reference_sample_from(waw_sampler, rng, default=48.0)
        source = min(
            pool,
            key=lambda name: abs((index - last_write[name]) - target_raw),
        )

        def waw_war_score(name: str) -> float:
            war = index - last_read[name]
            waw = index - last_write[name]
            return abs(war - target_war) + abs(waw - target_waw)

        dest_candidates = [name for name in pool if name != source]
        dest = min(dest_candidates, key=waw_war_score)
        realized_raw = index - last_write[source]
        realized_war = index - last_read[dest]
        realized_waw = index - last_write[dest]
        assignments.append(RegisterAssignment(
            index=index, dest=dest, source=source,
            raw_distance=realized_raw, war_distance=realized_war,
            waw_distance=realized_waw,
        ))
        for hist, value in ((raw_hist, realized_raw),
                            (war_hist, realized_war),
                            (waw_hist, realized_waw)):
            edge = DependencyProfile.quantize_distance(max(1.0, value))
            hist[edge] = hist.get(edge, 0.0) + 1.0
        last_read[source] = float(index)
        last_write[dest] = float(index)
    realized = DependencyProfile(
        raw=raw_hist, war=war_hist, waw=waw_hist,
        pointer_chase_frac=profile.pointer_chase_frac,
    )
    return AllocationResult(assignments=assignments, realized=realized)


_FULL = {1: 3.0, 2: 5.0, 4: 9.0, 8: 4.0, 16: 2.0, 32: 1.0, 128: 0.5}
_WAR = {4: 1.0, 32: 6.0, 64: 2.0, 1024: 0.25}
_WAW = {8: 2.0, 64: 7.0, 256: 1.0}

REGALLOC_PROFILES = {
    "all": DependencyDistanceProfile(raw=_FULL, war=_WAR, waw=_WAW,
                                     pointer_chase_frac=0.2),
    "no_raw": DependencyDistanceProfile(war=_WAR, waw=_WAW),
    "no_war": DependencyDistanceProfile(raw=_FULL, waw=_WAW),
    "no_waw": DependencyDistanceProfile(raw=_FULL, war=_WAR),
    "raw_only": DependencyDistanceProfile(raw=_FULL),
    "empty": DependencyDistanceProfile(pointer_chase_frac=0.5),
    "single_bins": DependencyDistanceProfile(raw={8: 1.0}, war={32: 1.0},
                                             waw={64: 1.0}),
}


class TestRegisterAssignmentEquivalence:
    @pytest.mark.parametrize("profile", sorted(REGALLOC_PROFILES))
    @pytest.mark.parametrize("slots", [8, 9, 100, 384])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_matches_per_slot_draws(self, profile, slots, seed):
        deps = REGALLOC_PROFILES[profile]
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = assign_registers(slots, deps, fast_rng)
        slow = reference_assign_registers(slots, deps, slow_rng)
        assert fast.assignments == slow.assignments
        assert fast.realized == slow.realized
        # the generator is left in the same state
        assert fast_rng.random() == slow_rng.random()


# --------------------------------------------------------------------- #
# block pricing: pinned digest of the per-call core model
# --------------------------------------------------------------------- #
#: sha256 over ``float.hex`` pricing rows of every block below, priced
#: under each of :func:`_pricing_keys`, then the context-switch rows;
#: captured with the per-call core model, before the key-independent
#: terms were computed once per block
PRICING_DIGESTS = {
    "A": "03c115cc5867048968f68584b3f5e54d0eaf875861cd5085d1e2f725c7d0837a",
    "C": "d87dbe65cdcb32360cae035e17b5f59fba372d2b7176ef0d93eeedbcb3328eb9",
}


def _priced_blocks():
    from repro import (build_memcached, build_mongodb, build_nginx,
                       build_redis, build_social_network)
    from repro.kernelsim.syscalls import kernel_block_for

    specs = [build_memcached(), build_redis(), build_nginx(),
             build_mongodb()]
    specs += list(build_social_network().values())
    blocks = []
    for spec in specs:
        blocks.extend(spec.program.all_blocks())
        for handler in spec.program.handlers.values():
            blocks.extend(kernel_block_for(inv) for inv in handler.syscalls)
    return blocks


def _pricing_keys():
    from repro.runtime.pricing import PricingKey

    keys = []
    for cold in (False, True):
        for concurrency in (1, 2, 8, 64):
            for smt, factors in ((1.0, (1.0, 1.0, 1.0, 1.0)),
                                 (1.37, (0.83, 0.71, 0.55, 0.42))):
                for reuse in (64 * 1024, 4 * 1024 * 1024):
                    keys.append(PricingKey.build(
                        cold=cold, concurrency=concurrency,
                        smt_contention=smt, cache_factors=factors,
                        code_reuse_bytes=reuse, static_branch_sites=2048))
    return keys


def _hex_row(timing) -> str:
    from repro.runtime.pricing import timing_row

    return ",".join(float(value).hex() for value in timing_row(timing))


class TestPricingEquivalence:
    @pytest.mark.parametrize("platform", sorted(PRICING_DIGESTS))
    def test_pricing_rows_digest_unchanged(self, platform):
        from repro.hw.platform import platform_by_name
        from repro.kernelsim.scheduler import ContextSwitchModel
        from repro.runtime.pricing import BlockPricer

        pricer = BlockPricer(platform_by_name(platform))
        blocks = _priced_blocks()
        keys = _pricing_keys()
        lines = []
        for block in blocks:
            for key in keys:
                timing = pricer.price(block, key)
                line = _hex_row(timing)
                # the memoised row rebuilds the same timing
                assert _hex_row(pricer.price(block, key)) == line
                lines.append(line)
        for key in keys:
            switch = ContextSwitchModel(pricer.context_for(key))
            lines.append(_hex_row(switch.timing))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert len(blocks) > 100
        assert digest == PRICING_DIGESTS[platform]


class TestPricerKeepsBlocksAlive:
    def test_priced_block_outlives_its_callers(self):
        from repro.hw import PLATFORM_A
        from repro.hw.ir import BlockSpec
        from repro.runtime.pricing import BlockPricer

        pricer = BlockPricer(PLATFORM_A)
        key = _pricing_keys()[0]
        block = BlockSpec(name="transient",
                          iform_counts={"ADD_r64_r64": 8.0})
        probe = weakref.ref(block)
        row = pricer.row(block, key)
        del block
        assert probe() is not None
        # the kept block still owns its row: a new block can't take it
        assert pricer.row(probe(), key) == row
        del pricer
        gc.collect()
        assert probe() is None


# --------------------------------------------------------------------- #
# instruction mix: the raw-stream reducer
# --------------------------------------------------------------------- #
Stream = List[Tuple[str, float]]


def reference_instruction_mix(artifacts: ServiceArtifacts,
                              stream: Stream) -> InstructionMixProfile:
    """:func:`profile_instruction_mix` over the raw ``(iform, rep)``
    samples, in the order the profiler drew them."""
    profile = InstructionMixProfile()
    rep_totals: Dict[str, List[float]] = {}
    for name, rep in stream:
        iform(name)
        profile.mix.add(name)
        if rep > 0:
            rep_totals.setdefault(name, []).append(rep)
    profile.rep_counts = {
        name: sum(values) / len(values) for name, values in rep_totals.items()
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
    observed = sorted({name for name, _ in stream})
    vectors = [feature_vector(iform(name)) for name in observed]
    profile.clusters = hierarchical_feature_clusters(
        observed, vectors, threshold=MIX_CLUSTER_THRESHOLD)
    return profile


def _recording_block_sampler(streams: Dict[str, Stream]):
    """:func:`collector._collect_block_artifacts`, also logging the raw
    instruction samples it draws.

    The draw is replayed on a copy of the profiler's generator, so the
    profiler's own stream is untouched.
    """
    sample_block = collector._collect_block_artifacts

    def recording(block, artifacts, arenas, regions, budget, rng):
        names = sorted(block.iform_counts)
        counts = np.array([block.iform_counts[n] for n in names],
                          dtype=float)
        per_iter = counts.sum()
        if per_iter > 0:
            n_samples = int(min(budget.max_istream_per_block / 4,
                                max(16, per_iter / 8)))
            drawn = copy.deepcopy(rng).choice(
                len(names), size=n_samples, p=counts / counts.sum())
            stream = streams.setdefault(artifacts.service, [])
            for index in drawn:
                name = names[index]
                stream.append((name, block.rep_elements
                               if name.startswith(("REP", "REPNZ"))
                               else 0.0))
        sample_block(block, artifacts, arenas, regions, budget, rng)

    return recording


def _mix_deployments():
    from repro import (Deployment, LoadSpec, build_memcached, build_nginx,
                       build_redis, build_social_network,
                       social_network_deployment)

    names = list(build_social_network())
    return {
        "memcached": (Deployment.single(build_memcached()),
                      LoadSpec.open_loop(100_000)),
        "redis": (Deployment.single(build_redis()),
                  LoadSpec.closed_loop(32)),
        "nginx": (Deployment.single(build_nginx()),
                  LoadSpec.open_loop(2_000)),
        "socialnet": (social_network_deployment(
            placement={name: f"node{i % 4}"
                       for i, name in enumerate(names)}),
            LoadSpec.open_loop(2_000)),
    }


@pytest.fixture(scope="module")
def mix_profiles():
    """``{workload: (profile, raw streams by service)}``."""
    from repro import ExperimentConfig, PLATFORM_A
    from repro.profiling import ProfilingBudget, profile_deployment

    found = {}
    for workload, (deployment, load) in _mix_deployments().items():
        streams: Dict[str, Stream] = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collector, "_collect_block_artifacts",
                          _recording_block_sampler(streams))
            profile = profile_deployment(
                deployment, load,
                ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                 seed=7),
                budget=ProfilingBudget(sampled_requests=8,
                                       profile_duration_s=0.015),
                seed=7)
        found[workload] = (profile, streams)
    return found


def _mix_fields(profile: InstructionMixProfile):
    """Every field, floats as ``float.hex``, dicts in their order."""
    return (
        [(name, float(count).hex())
         for name, count in profile.mix.counts.items()],
        float(profile.instructions_per_request).hex(),
        [(name, float(value).hex()) for name, value in
         profile.instructions_per_request_by_handler.items()],
        [(name, float(value).hex())
         for name, value in profile.rep_counts.items()],
        profile.clusters,
    )


class TestInstructionMixEquivalence:
    @pytest.mark.parametrize("workload", sorted(_mix_deployments()))
    def test_table_matches_raw_stream(self, mix_profiles, workload):
        profile, streams = mix_profiles[workload]
        assert set(streams) == set(profile.services)
        for name, artifacts in profile.services.items():
            table = profile_instruction_mix(artifacts)
            oracle = reference_instruction_mix(artifacts, streams[name])
            assert _mix_fields(table) == _mix_fields(oracle), name

    def test_rep_iforms_are_covered(self, mix_profiles):
        with_rep = [
            (workload, name)
            for workload, (profile, _) in mix_profiles.items()
            for name, artifacts in profile.services.items()
            if profile_instruction_mix(artifacts).rep_counts]
        assert len(with_rep) >= 4


# --------------------------------------------------------------------- #
# working sets and branches: the trace-based reducers
# --------------------------------------------------------------------- #
@dataclass
class ReferenceRegionTrace:
    """A region's raw sampled trace, as profiles used to carry it."""

    addresses: np.ndarray
    weights: np.ndarray
    line_sample_factor: float
    thread2_addresses: Optional[np.ndarray]
    region_bytes: float
    chase_frac: float

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@dataclass
class ReferenceBranchSite:
    """A branch site's raw outcome history."""

    pc: int
    outcomes: np.ndarray
    executions_weight: float

    @property
    def taken_rate(self) -> float:
        if len(self.outcomes) == 0:
            return 0.0
        return float(np.mean(self.outcomes))

    @property
    def transition_rate(self) -> float:
        if len(self.outcomes) < 2:
            return 0.0
        return float(np.mean(self.outcomes[1:] != self.outcomes[:-1]))


def reference_sweep(regions, max_size: int) -> WorkingSetProfile:
    """The steady-state sweep over spatially-sampled region traces."""
    sizes = pow2_bins(LINE_BYTES, max_size)
    hits = np.zeros(len(sizes), dtype=np.float64)
    total = 0.0
    for region in regions:
        distances = reuse_distances(region.addresses).astype(np.float64)
        scaled = distances * region.line_sample_factor
        weights = np.asarray(region.weights, dtype=np.float64)
        total += float(weights.sum())
        valid = distances >= 0
        if region.region_bytes > 0:
            first = ~valid
            n_first = int(first.sum())
            if n_first:
                region_lines = max(1.0, region.region_bytes / LINE_BYTES)
                if regularity_ratio(region.addresses) >= 0.5:
                    scaled[first] = region_lines
                else:
                    scaled[first] = np.linspace(
                        region_lines / n_first, region_lines, n_first)
                valid = np.ones_like(valid)
        for index, size in enumerate(sizes):
            capacity_lines = max(1, size // LINE_BYTES)
            mask = valid & (scaled < capacity_lines)
            hits[index] += float(weights[mask].sum())
    return WorkingSetProfile(sizes=sizes, hits=[float(h) for h in hits],
                             total_weight=total)


def reference_regularity(regions, min_region_bytes: float = 0.0) -> float:
    num = 0.0
    den = 0.0
    for region in regions:
        if not min_region_bytes <= region.region_bytes <= float("inf"):
            continue
        weight = region.total_weight
        num += regularity_ratio(region.addresses, region.weights) * weight
        den += weight
    if den <= 0:
        return 0.0
    return num / den


def reference_chase(regions, min_region_bytes: float) -> float:
    num = 0.0
    den = 0.0
    for region in regions:
        if region.region_bytes < min_region_bytes:
            continue
        weight = region.total_weight
        num += region.chase_frac * weight
        den += weight
    if den <= 0:
        return 0.0
    return num / den


def reference_shared(regions) -> float:
    num = 0.0
    den = 0.0
    for region in regions:
        weight = region.total_weight
        den += weight
        if region.thread2_addresses is not None:
            num += shared_ratio(region.addresses, region.thread2_addresses,
                                region.weights) * weight
    if den <= 0:
        return 0.0
    return num / den


def reference_branches(sites) -> BranchProfile:
    """:func:`profile_branches` over per-site outcome arrays."""
    quantizer = LogScaleQuantizer(max_exponent=10)
    profile = BranchProfile()
    weighted_taken = 0.0
    weighted_transition = 0.0
    total_weight = 0.0
    for site in sites:
        taken = site.taken_rate
        transition = site.transition_rate
        bin_: RateBin = (
            quantizer.quantize(taken),
            quantizer.quantize(transition),
            taken >= 0.5,
        )
        profile.rate_distribution.add(bin_, site.executions_weight)
        weighted_taken += taken * site.executions_weight
        weighted_transition += transition * site.executions_weight
        total_weight += site.executions_weight
    profile.static_sites = len({site.pc for site in sites})
    if total_weight > 0:
        profile.mean_taken_rate = weighted_taken / total_weight
        profile.mean_transition_rate = weighted_transition / total_weight
    return profile


def reference_features(artifacts: ServiceArtifacts, data, instr, sites):
    """:func:`extract_service_features` with every field the traces fed
    taken from the trace-based reducers."""
    requests = max(1, artifacts.requests_observed)
    large = reference_regularity(data, LARGE_REGION_BYTES)
    return dataclasses.replace(
        extract_service_features(artifacts),
        branches=reference_branches(sites),
        data_wsets={
            size: accesses / requests
            for size, accesses in invert_data_hits(
                reference_sweep(data, 256 * 1024 * 1024)).items()},
        instr_wsets={
            size: execs / requests
            for size, execs in invert_instruction_hits(
                reference_sweep(instr, 16 * 1024 * 1024)).items()},
        regular_ratio=reference_regularity(data),
        regular_ratio_large=(large if large > 0.0
                             else reference_regularity(data)),
        chase_ratio_large=reference_chase(data, LARGE_REGION_BYTES),
        shared_ratio=reference_shared(data),
    )


def _recording_finalize(traces: Dict[int, ReferenceRegionTrace]):
    """``_RegionAccumulator.finalize``, also keeping the raw trace it
    reduced (keyed by the id of the statistics it returned)."""
    finalize = collector._RegionAccumulator.finalize

    def recording(self, sizes):
        stats = finalize(self, sizes)
        if stats is not None:
            addresses = np.concatenate(self.offsets)
            traces[id(stats)] = ReferenceRegionTrace(
                addresses=addresses,
                weights=np.concatenate(self.weights),
                line_sample_factor=float(self.stride_lines),
                thread2_addresses=(np.concatenate(self.offsets_t2)
                                   if self.offsets_t2 else None),
                region_bytes=float(addresses.max() - addresses.min())
                + 64.0 * self.stride_lines,
                chase_frac=self.chase_frac,
            )
        return stats

    return recording


def _recording_branch_sampler(found: Dict[str, List[ReferenceBranchSite]]):
    """:func:`collector._collect_branch_artifacts`, also logging each
    site's address, outcome history and weight (replayed on a copy of
    the profiler's generator, as the per-site collector drew them)."""
    sample_sites = collector._collect_branch_artifacts

    def recording(block, artifacts, budget, rng, executions_scale, pcs):
        replay = copy.deepcopy(rng)
        sites = found.setdefault(artifacts.service, [])
        code_base = (collector._name_hash(block.name) % (1 << 24)) << 8
        for pop_index, population in enumerate(block.branches):
            executions = population.executions * max(1.0, block.iterations)
            if executions <= 0:
                continue
            count = int(min(budget.max_sites_per_population,
                            population.static_count))
            weight = executions * executions_scale / count
            for site in range(count):
                taken = float(np.clip(
                    population.taken_rate + replay.normal(0, 0.02),
                    0.0, 1.0))
                trans = float(np.clip(
                    population.transition_rate + replay.normal(0, 0.02),
                    0.0, 1.0))
                sites.append(ReferenceBranchSite(
                    pc=code_base + 64 * (pop_index * 97 + site),
                    outcomes=generate_branch_outcomes(
                        taken, trans, budget.branch_outcomes_per_site,
                        replay),
                    executions_weight=weight))
        sample_sites(block, artifacts, budget, rng,
                     executions_scale=executions_scale, pcs=pcs)

    return recording


#: one sampled DCFG dependency tuple: (raw, war, waw, pointer_chase)
DepTuple = Tuple[float, float, float, bool]


def reference_dependencies(samples: List[DepTuple],
                           ) -> DependencyDistanceProfile:
    """:func:`profile_dependencies` over the raw sampled tuples."""
    def quantise_into(target: Dict[int, float], distance: float) -> None:
        edge = DEP_DISTANCE_BINS[bin_index(max(1.0, distance),
                                           DEP_DISTANCE_BINS)]
        target[edge] = target.get(edge, 0.0) + 1.0

    profile = DependencyDistanceProfile()
    chases = 0
    for raw, war, waw, pointer_chase in samples:
        quantise_into(profile.raw, raw)
        quantise_into(profile.war, war)
        quantise_into(profile.waw, waw)
        if pointer_chase:
            chases += 1
    profile.pointer_chase_frac = chases / len(samples)
    return profile


def _recording_dep_sampler(samples: Dict[str, List[DepTuple]]):
    """:func:`collector._collect_dep_artifacts`, also logging the raw
    tuples it draws (replayed on a copy of the profiler's generator, as
    the pre-tally collector drew them)."""
    sample_deps = collector._collect_dep_artifacts

    def recording(block, artifacts, budget, rng):
        replay = copy.deepcopy(rng)

        def distance(weights, default):
            if not weights:
                return default
            edge = float(Histogram(dict(weights)).sample(replay, 1)[0])
            return max(1.0, edge * float(replay.uniform(0.75, 1.25)))

        drawn = samples.setdefault(artifacts.service, [])
        deps = block.deps
        for _ in range(budget.dep_samples_per_block):
            drawn.append((
                distance(deps.raw, 24.0), distance(deps.war, 32.0),
                distance(deps.waw, 48.0),
                bool(replay.random() < deps.pointer_chase_frac)))
        sample_deps(block, artifacts, budget, rng)

    return recording


def _trace_deployments():
    from repro import Deployment, LoadSpec, build_mongodb

    return dict(_mix_deployments(),
                mongodb=(Deployment.single(build_mongodb()),
                         LoadSpec.closed_loop(16)))


@pytest.fixture(scope="module")
def trace_profiles():
    """``{workload: (profile, traces by stats id, branch sites by
    service, dependency tuples by service, threads by service)}``."""
    from repro import ExperimentConfig, PLATFORM_A
    from repro.profiling import ProfilingBudget, profile_deployment

    found = {}
    for workload, (deployment, load) in _trace_deployments().items():
        traces: Dict[int, ReferenceRegionTrace] = {}
        sites: Dict[str, List[ReferenceBranchSite]] = {}
        dep_samples: Dict[str, List[DepTuple]] = {}
        threads: Dict[str, List[ReferenceThread]] = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collector._RegionAccumulator, "finalize",
                          _recording_finalize(traces))
            patch.setattr(collector, "_collect_branch_artifacts",
                          _recording_branch_sampler(sites))
            patch.setattr(collector, "_collect_dep_artifacts",
                          _recording_dep_sampler(dep_samples))
            patch.setattr(collector, "_observe_threads",
                          _recording_thread_prober(threads))
            profile = profile_deployment(
                deployment, load,
                ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                 seed=7),
                budget=ProfilingBudget(sampled_requests=8,
                                       profile_duration_s=0.015),
                seed=7)
        found[workload] = (profile, traces, sites, dep_samples, threads)
    return found


def _hexed(value):
    """A value with every float as ``float.hex`` and every dict in its
    order, walking dataclasses and plain objects field by field."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, (bool, int, str, np.integer,
                                           np.bool_)):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, _hexed(getattr(value, f.name)))
                 for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return [(_hexed(key), _hexed(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _hexed(vars(value)))
    return repr(value)


class TestRegionStatsEquivalence:
    @pytest.mark.parametrize("workload", sorted(_trace_deployments()))
    def test_features_match_trace_reducers(self, trace_profiles, workload):
        profile, traces, sites, _, _ = trace_profiles[workload]
        for name, artifacts in profile.services.items():
            data = [traces[id(region)] for region in artifacts.data_regions]
            instr = [traces[id(region)]
                     for region in artifacts.instr_regions]
            features = extract_service_features(artifacts)
            oracle = reference_features(artifacts, data, instr, sites[name])
            assert _hexed(features) == _hexed(oracle), name

    def test_every_reducer_is_exercised(self, trace_profiles):
        features = [
            extract_service_features(artifacts)
            for profile, _, _, _, _ in trace_profiles.values()
            for artifacts in profile.services.values()]
        assert any(f.shared_ratio > 0 for f in features)
        assert any(f.chase_ratio_large > 0 for f in features)
        assert any(f.regular_ratio_large != f.regular_ratio
                   for f in features)
        assert any(f.instr_wsets for f in features)


class TestDependencyTallyEquivalence:
    @pytest.mark.parametrize("workload", sorted(_trace_deployments()))
    def test_tallies_match_raw_samples(self, trace_profiles, workload):
        profile, _, _, dep_samples, _ = trace_profiles[workload]
        assert set(dep_samples) == set(profile.services)
        for name, artifacts in profile.services.items():
            samples = dep_samples[name]
            assert artifacts.deps.samples == len(samples)
            oracle = reference_dependencies(samples)
            assert _hexed(profile_dependencies(artifacts)) == \
                _hexed(oracle), name


# --------------------------------------------------------------------- #
# profiles carry a shape table and a branch tally, not per-thread call
# trees and per-site records
# --------------------------------------------------------------------- #
#: the 4-node social network profiled by :func:`trace_profiles`: its
#: RPC edges as the span reducer computed them (profile version 5)
TRACE_SOCIALNET_EDGES = [
    ("frontend", "user-timeline-service", 13),
    ("frontend", "home-timeline-service", 12),
    ("frontend", "compose-post-service", 3),
    ("user-timeline-service", "post-storage-service", 13),
    ("home-timeline-service", "social-graph-service", 12),
    ("home-timeline-service", "post-storage-service", 12),
    ("social-graph-service", "socialgraph-redis", 15),
    ("compose-post-service", "text-service", 3),
    ("compose-post-service", "unique-id-service", 3),
    ("compose-post-service", "media-service", 3),
    ("compose-post-service", "user-service", 3),
    ("compose-post-service", "post-storage-service", 3),
    ("compose-post-service", "write-home-timeline-service", 3),
    ("text-service", "url-shorten-service", 3),
    ("text-service", "user-mention-service", 3),
    ("write-home-timeline-service", "social-graph-service", 3),
]


def _tally(sites: List[ReferenceBranchSite]) -> BranchTally:
    """The sites' tally, added in the order given."""
    tally = BranchTally(static_sites=len({site.pc for site in sites}))
    for site in sites:
        tally.add(site.taken_rate, site.transition_rate,
                  site.executions_weight)
    return tally


class TestShapeTableAndBranchTally:
    @pytest.mark.parametrize("workload", sorted(_trace_deployments()))
    def test_profile_matches_per_observation_reducers(self, trace_profiles,
                                                      workload):
        profile, _, sites, _, threads = trace_profiles[workload]
        assert set(threads) == set(sites) == set(profile.services)
        for name, artifacts in profile.services.items():
            assert _threads_match(artifacts, threads[name]), name
            assert _hexed(profile_branches(artifacts)) == \
                _hexed(reference_branches(sites[name])), name
        topology = profile.topology
        if workload == "socialnet":
            assert topology.tiers == SEED7_TIERS
            assert topology.edges == TRACE_SOCIALNET_EDGES
        else:
            assert topology.tiers == list(profile.services)
            assert topology.edges == []

    def test_permuted_tally_fails_the_comparison(self, trace_profiles):
        profile, traces, sites, _, _ = trace_profiles["socialnet"]
        permuted = 0
        for name, artifacts in profile.services.items():
            data = [traces[id(region)] for region in artifacts.data_regions]
            instr = [traces[id(region)]
                     for region in artifacts.instr_regions]
            oracle = _hexed(reference_features(artifacts, data, instr,
                                               sites[name]))
            in_order = dataclasses.replace(artifacts,
                                           branches=_tally(sites[name]))
            assert _hexed(extract_service_features(in_order)) == oracle
            if len(_tally(sites[name]).rates.counts) < 2:
                continue
            reordered = dataclasses.replace(
                artifacts, branches=_tally(sites[name][::-1]))
            assert _hexed(extract_service_features(reordered)) != oracle, \
                name
            permuted += 1
        assert permuted

    def test_clone_benchmark_profile_is_at_most_200_kb(self, tmp_path):
        # The seed-7 4-node social network at the clone benchmark's
        # budget: 239,392 B on disk while profiles carried one call tree
        # per thread observation and one record per branch site.
        from repro.profiling import profile_deployment
        from repro.profiling.collector import save_profile

        deployment, load, config, budget, _, _ = _topology_profiles()[7]
        profile = profile_deployment(deployment, load, config,
                                     budget=budget, seed=17)
        path = tmp_path / "profile.pkl"
        save_profile(str(path), profile)
        assert path.stat().st_size <= 200_000


# --------------------------------------------------------------------- #
# profiles carry the topology, not the spans
# --------------------------------------------------------------------- #
#: the seed-7 4-node social network at 2k qps with a 0.06 s profiling
#: window: its topology as the span reducer computed it when profiles
#: still carried spans (profile version 4)
SEED7_TIERS = [
    "frontend", "user-timeline-service", "home-timeline-service",
    "compose-post-service", "text-service", "unique-id-service",
    "media-service", "user-service", "post-storage-service",
    "write-home-timeline-service", "url-shorten-service",
    "user-mention-service", "social-graph-service", "socialgraph-redis",
]
SEED7_EDGES = [
    ("frontend", "user-timeline-service", 40),
    ("frontend", "home-timeline-service", 66),
    ("frontend", "compose-post-service", 12),
    ("user-timeline-service", "post-storage-service", 40),
    ("home-timeline-service", "social-graph-service", 66),
    ("home-timeline-service", "post-storage-service", 66),
    ("social-graph-service", "socialgraph-redis", 78),
    ("compose-post-service", "text-service", 12),
    ("compose-post-service", "unique-id-service", 12),
    ("compose-post-service", "media-service", 12),
    ("compose-post-service", "user-service", 12),
    ("compose-post-service", "post-storage-service", 12),
    ("compose-post-service", "write-home-timeline-service", 12),
    ("text-service", "url-shorten-service", 12),
    ("text-service", "user-mention-service", 12),
    ("write-home-timeline-service", "social-graph-service", 12),
]


def _topology_profiles():
    """seed -> (deployment, load, config, budget, pinned tiers, edges)."""
    from repro import (ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_social_network, social_network_deployment)
    from repro.profiling import ProfilingBudget
    from tests.test_core_topology_codegen import (SEED2_EDGES, SEED2_RUN,
                                                  SEED2_TIERS)

    names = list(build_social_network())
    four_nodes = social_network_deployment(
        placement={name: f"node{i % 4}" for i, name in enumerate(names)})
    return {
        2: (social_network_deployment(),
            LoadSpec.open_loop(SEED2_RUN["qps"]),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                             seed=SEED2_RUN["seed"]),
            ProfilingBudget(sampled_requests=4,
                            profile_duration_s=SEED2_RUN["duration_s"]),
            SEED2_TIERS, SEED2_EDGES),
        7: (four_nodes, LoadSpec.open_loop(2_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.2, seed=7),
            ProfilingBudget(sampled_requests=8, profile_duration_s=0.06),
            SEED7_TIERS, SEED7_EDGES),
    }


class TestProfileTopologyEquivalence:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_profile_topology_matches_span_reducer(self, seed, tmp_path):
        from repro.profiling import profile_deployment
        from repro.profiling.collector import load_profile, save_profile

        deployment, load, config, budget, tiers, edges = \
            _topology_profiles()[seed]
        profile = profile_deployment(deployment, load, config,
                                     budget=budget, seed=17)
        assert not hasattr(profile, "spans")
        topology = profile.topology
        assert topology.entry_service == "frontend"
        assert topology.tiers == tiers
        assert topology.edges == edges
        path = tmp_path / "profile.pkl"
        save_profile(str(path), profile)
        assert load_profile(str(path)).topology == topology

    def test_single_tier_profile_has_a_one_tier_topology(self):
        from repro import (Deployment, ExperimentConfig, LoadSpec,
                           PLATFORM_A, build_memcached)
        from repro.profiling import ProfilingBudget, profile_deployment

        profile = profile_deployment(
            Deployment.single(build_memcached()), LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5),
            budget=ProfilingBudget(sampled_requests=4,
                                   profile_duration_s=0.01))
        assert profile.topology.tiers == ["memcached"]
        assert profile.topology.edges == []
        assert profile.topology.entry_service == "memcached"


# --------------------------------------------------------------------- #
# one pool per clone: pooled collection, and the tuner's spec reused
# --------------------------------------------------------------------- #
def _collection_inputs():
    """name -> (deployment, load, config, budget) profiled below."""
    from repro import (Deployment, ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_memcached)
    from repro.profiling import ProfilingBudget

    deployment, load, config, budget, _, _ = _topology_profiles()[7]
    return {
        "socialnet": (deployment, load, config, budget),
        "memcached": (
            Deployment.single(build_memcached()),
            LoadSpec.open_loop(100_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5),
            ProfilingBudget(sampled_requests=8, profile_duration_s=0.015)),
    }


def _reversed_fan_out(pool, fn, tasks, complete, fail=None):
    """Collect every tier in this process, last tier first."""
    for key in reversed(list(tasks)):
        complete(key, fn(tasks[key]))
    return "serial"


class TestPooledCollectionEquivalence:
    @pytest.fixture(scope="class", params=["socialnet", "memcached"])
    def profiled(self, request):
        """(inputs, digest of the serially collected profile)."""
        from repro.profiling import profile_deployment

        inputs = _collection_inputs()[request.param]
        deployment, load, config, budget = inputs
        serial = profile_deployment(deployment, load, config,
                                    budget=budget, seed=17)
        return inputs, stable_digest(serial)

    def test_pool_profile_equals_serial(self, profiled):
        from repro.profiling import profile_deployment
        from repro.runtime.pool import worker_pool

        (deployment, load, config, budget), serial = profiled
        with worker_pool("process", n_tasks=len(deployment.services),
                         max_workers=2) as pool:
            pooled = profile_deployment(deployment, load, config,
                                        budget=budget, seed=17, pool=pool)
            assert not pool.broken
        assert list(pooled.services) == list(deployment.services)
        assert stable_digest(pooled) == serial

    def test_reverse_order_profile_equals_serial(self, profiled,
                                                 monkeypatch):
        from repro.profiling import profile_deployment

        (deployment, load, config, budget), serial = profiled
        monkeypatch.setattr(collector, "fan_out", _reversed_fan_out)
        reversed_order = profile_deployment(deployment, load, config,
                                            budget=budget, seed=17)
        assert list(reversed_order.services) == list(deployment.services)
        assert stable_digest(reversed_order) == serial


class TestTunedSpecReuse:
    """The tuner's spec for its chosen knobs is the final spec."""

    @pytest.fixture(scope="class")
    def tier(self):
        from repro.core.body_gen import GeneratorConfig
        from repro.profiling import profile_deployment

        deployment, load, config, budget = \
            _collection_inputs()["memcached"]
        profile = profile_deployment(deployment, load, config,
                                     budget=budget, seed=17)
        features = extract_service_features(profile.artifacts("memcached"))
        # at tune seed 1, the third of four candidates is the best
        tune_config = dataclasses.replace(config, seed=1)
        return features, tune_config, GeneratorConfig(seed=11)

    @staticmethod
    def _assert_reused(features, base, result):
        from repro.core.synthesis import synthesize_service

        fresh = synthesize_service(
            features, dataclasses.replace(base, knobs=result.knobs))
        assert stable_digest(result.spec) == stable_digest(fresh)

    def test_converged(self, tier):
        from repro.core.finetune import fine_tune

        features, tune_config, base = tier
        result = fine_tune(features, tune_config, base, max_iterations=3,
                           tolerance=10.0)
        assert result.converged and result.iterations == 1
        self._assert_reused(features, base, result)

    def test_best_of(self, tier):
        from repro.core.finetune import fine_tune

        features, tune_config, base = tier
        result = fine_tune(features, tune_config, base, max_iterations=4,
                           tolerance=0.0)
        assert not result.converged and result.iterations == 4
        # the best candidate is not the last one measured
        best = result.error_history.index(min(result.error_history))
        assert best < len(result.error_history) - 1
        self._assert_reused(features, base, result)

    def test_budget_trip(self, tier, monkeypatch):
        from repro.core import finetune
        from repro.util.errors import SimBudgetExceededError

        features, tune_config, base = tier
        measure, calls = finetune.measure_standalone, []

        def trip_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SimBudgetExceededError("tripped", budget="events")
            return measure(*args, **kwargs)

        monkeypatch.setattr(finetune, "measure_standalone", trip_on_second)
        result = finetune.fine_tune(features, tune_config, base,
                                    max_iterations=3, tolerance=0.0)
        assert not result.converged and result.iterations == 2
        assert result.knobs == base.knobs
        self._assert_reused(features, base, result)

    def test_every_tier_of_a_tuned_clone(self):
        from repro import CloneRequest, DittoCloner, LoadSpec
        from repro.app.workloads import two_tier_deployment
        from repro.core.body_gen import GeneratorConfig
        from repro.core.synthesis import synthesize_service

        _, _, config, budget = _collection_inputs()["memcached"]
        result = DittoCloner(executor="serial").clone(CloneRequest(
            deployment=two_tier_deployment(),
            load=LoadSpec.open_loop(20_000), config=config, budget=budget,
            fine_tune_tiers=True, max_tune_iterations=2))
        report = result.report
        assert set(report.tuning) == set(result.synthetic.services)
        for name, spec in result.synthetic.services.items():
            assert report.tuning[name].spec is spec
            fresh = synthesize_service(report.features[name], GeneratorConfig(
                seed=report.generator_seeds[name],
                knobs=report.tuning[name].knobs))
            assert stable_digest(spec) == stable_digest(fresh)
