"""Bit-identity proofs for the clone critical path.

Four per-tier computations are done once instead of many times:

* thread clustering memoises the tree-edit distance per pair of
  call-tree shapes;
* register assignment draws every distance target of an allocation in
  one batch;
* the core model computes each block's key-independent pricing terms
  once per block;
* the profiler keeps the sampled instruction stream as a per-iform
  table (count, REP sum, REP samples) instead of the raw samples.

Each must change no result. The references below are copies of the
code paths they replaced, kept here (not in ``src/``) as the oracle;
the pricing digest was captured with the per-call core model.
"""

import copy
import gc
import hashlib
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.clustering import agglomerative_cluster
from repro.analysis.treedit import CallTree, normalized_tree_distance
from repro.core.regalloc import (
    AllocationResult,
    RegisterAssignment,
    assign_registers,
)
from repro.hw.ir import DependencyProfile
from repro.analysis.clustering import hierarchical_feature_clusters
from repro.isa.instructions import feature_vector, iform
from repro.isa.registers import RegisterFile
from repro.profiling import collector
from repro.profiling.artifacts import ServiceArtifacts, ThreadObservation
from repro.profiling.deps import DependencyDistanceProfile
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
from repro.util.stats import Histogram


# --------------------------------------------------------------------- #
# thread clustering: all-pairs reference
# --------------------------------------------------------------------- #
def reference_thread_model(artifacts: ServiceArtifacts) -> ThreadModelProfile:
    """The all-pairs :func:`profile_thread_model`: one tree-edit
    distance per pair of observations."""
    observations = artifacts.threads
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
        representative: ThreadObservation = cluster[0]
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
            representative_tree=representative.call_tree,
        ))
    return profile


def _class_fields(profile: ThreadModelProfile):
    return [(cls.name, cls.role, cls.count, cls.scales_with_connections,
             cls.trigger, cls.short_lived, cls.representative_tree)
            for cls in profile.classes]


def _shape(tree: CallTree):
    return (tree.label, tuple(_shape(child) for child in tree.children))


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
def socialnet_artifacts():
    """Smoke-scale profile of the 4-node social network."""
    from repro import (ExperimentConfig, LoadSpec, PLATFORM_A,
                       build_social_network, social_network_deployment)
    from repro.profiling import ProfilingBudget, profile_deployment

    names = list(build_social_network())
    deployment = social_network_deployment(
        placement={name: f"node{i % 4}" for i, name in enumerate(names)})
    profile = profile_deployment(
        deployment, LoadSpec.open_loop(2_000),
        ExperimentConfig(platform=PLATFORM_A, duration_s=0.05, seed=7),
        budget=ProfilingBudget(sampled_requests=8,
                               profile_duration_s=0.015),
        seed=7)
    return [profile.artifacts(name) for name in names]


def _random_tree(rng, depth=0) -> CallTree:
    labels = ["epoll_wait", "accept", "recv", "send", "nanosleep", "read",
              "write", "futex", "parse", "lookup"]
    tree = CallTree(str(rng.choice(labels)))
    if depth < 3:
        for _ in range(int(rng.integers(0, 4 - depth))):
            tree.add(_random_tree(rng, depth + 1))
    return tree


def _copy_tree(tree: CallTree) -> CallTree:
    return CallTree(tree.label, [_copy_tree(c) for c in tree.children])


def _duplicate_heavy_artifacts(seed: int, shapes: int,
                               threads: int) -> ServiceArtifacts:
    """Many observations over a few shapes; every tree a fresh object."""
    rng = np.random.default_rng(seed)
    pool = [_random_tree(rng) for _ in range(shapes)]
    artifacts = ServiceArtifacts(service=f"synthetic-{seed}")
    for thread_id in range(threads):
        artifacts.threads.append(ThreadObservation(
            thread_id=thread_id,
            call_tree=_copy_tree(pool[int(rng.integers(0, shapes))]),
            spawned_by_clone=bool(rng.random() < 0.5),
            lifetime_fraction=float(rng.choice([0.3, 0.9, 1.0])),
            wakeup_trigger=str(rng.choice(["socket", "timer", "condvar"])),
            connections_at_observation=int(rng.choice([16, 32])),
        ))
    return artifacts


class TestThreadModelEquivalence:
    def test_socialnet_profile_matches_all_pairs(self, socialnet_artifacts,
                                                 monkeypatch):
        calls = _counting_treedit(monkeypatch)
        for artifacts in socialnet_artifacts:
            calls[0] = 0
            got = profile_thread_model(artifacts)
            shapes = {_shape(obs.call_tree) for obs in artifacts.threads}
            assert calls[0] <= len(shapes) ** 2, artifacts.service
            assert _class_fields(got) == \
                _class_fields(reference_thread_model(artifacts))

    @pytest.mark.parametrize("seed,shapes,threads", [
        (1, 1, 12), (2, 3, 50), (3, 5, 80), (4, 8, 40), (5, 2, 3),
    ])
    def test_duplicate_heavy_observations(self, seed, shapes, threads,
                                          monkeypatch):
        artifacts = _duplicate_heavy_artifacts(seed, shapes, threads)
        distinct = {_shape(obs.call_tree) for obs in artifacts.threads}
        want = _class_fields(reference_thread_model(artifacts))
        calls = _counting_treedit(monkeypatch)
        assert _class_fields(profile_thread_model(artifacts)) == want
        assert calls[0] <= len(distinct) ** 2


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
