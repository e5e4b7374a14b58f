"""Tests for the profiling toolchain: collector + feature extractors."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.app.service import Deployment
from repro.app.skeleton import ServerNetworkModel
from repro.app.workloads import build_memcached, build_mongodb, build_redis
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import (
    ProfilingBudget,
    profile_branches,
    profile_dependencies,
    profile_deployment,
    profile_instruction_mix,
    profile_network_model,
    profile_syscalls,
    profile_thread_model,
    profile_working_sets,
)
from repro.profiling.wset import (
    DATA_SWEEP_SIZES,
    INSTR_SWEEP_SIZES,
    invert_data_hits,
    invert_instruction_hits,
    regularity_ratio,
    reuse_distances,
    shared_ratio,
)
from repro.profiling.collector import (
    PROFILE_SCHEMA,
    PROFILE_VERSION,
    load_profile,
    save_profile,
)
from repro.runtime import ExperimentConfig
from repro.util.errors import ArtifactIntegrityError, ProfilingError
from repro.validation import integrity


@pytest.fixture(scope="module")
def memcached_profile():
    deployment = Deployment.single(build_memcached())
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)
    return profile_deployment(deployment, LoadSpec.open_loop(100000), config)


@pytest.fixture(scope="module")
def memcached_artifacts(memcached_profile):
    return memcached_profile.artifacts("memcached")


class TestCollector:
    def test_requests_observed(self, memcached_artifacts):
        assert memcached_artifacts.requests_observed >= 8

    def test_counters_attached(self, memcached_artifacts):
        assert memcached_artifacts.counters is not None
        assert memcached_artifacts.counters.ipc > 0

    def test_handler_mix_observed(self, memcached_artifacts):
        assert set(memcached_artifacts.observed_handler_mix) <= {"get", "set"}
        assert "get" in memcached_artifacts.observed_handler_mix

    def test_unknown_service_rejected(self, memcached_profile):
        with pytest.raises(ProfilingError):
            memcached_profile.artifacts("nope")

    def test_region_traces_collected(self, memcached_artifacts):
        assert memcached_artifacts.data_regions
        assert memcached_artifacts.instr_regions
        for region in memcached_artifacts.data_regions:
            assert region.total_weight > 0
            assert region.region_bytes >= 64
            assert len(region.hits) == len(DATA_SWEEP_SIZES)
            assert 0.0 <= region.regularity <= 1.0
        for region in memcached_artifacts.instr_regions:
            assert len(region.hits) == len(INSTR_SWEEP_SIZES)
            assert region.shared is None


def _socialnet_4node():
    from repro.app.workloads import (build_social_network,
                                     social_network_deployment)

    names = list(build_social_network())
    return social_network_deployment(
        placement={name: f"node{i % 4}" for i, name in enumerate(names)})


class TestProfilingWindow:
    def test_window_grows_until_every_entry_operation_is_seen(self):
        # Regression: at seed 6, a 15 ms Poisson window at 2k qps shows
        # the frontend no compose_post request (nor does 30 ms). A clone
        # of that profile has no compose path, and its fidelity gate
        # failed on every remediation rung.
        deployment = _socialnet_4node()
        profile = profile_deployment(
            deployment, LoadSpec.open_loop(2_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.05, seed=6),
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            seed=17)
        entry = deployment.services[deployment.entry_service]
        observed = profile.artifacts(entry.name).observed_handler_mix
        assert set(observed) == set(entry.request_mix)
        assert observed["compose_post"] > 0
        # the compose path was profiled all the way down
        assert profile.artifacts("compose-post-service").requests_observed

    def test_unseen_entry_operation_names_it_past_the_cap(self):
        spec = build_memcached()
        rare = replace(spec, request_mix={"get": 1.0, "set": 1e-12})
        with pytest.raises(ProfilingError, match="'set'"):
            profile_deployment(
                Deployment.single(rare), LoadSpec.open_loop(20_000),
                ExperimentConfig(platform=PLATFORM_A, duration_s=0.01,
                                 seed=5),
                budget=ProfilingBudget(sampled_requests=8,
                                       profile_duration_s=0.002))


_PROFILE_DIGESTS = """
from repro.app.service import Deployment
from repro.app.workloads import build_memcached
from repro.core.features import extract_service_features
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig
from repro.util.spec_hash import stable_digest

profile = profile_deployment(
    Deployment.single(build_memcached()), LoadSpec.open_loop(100_000),
    ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5),
    budget=ProfilingBudget(sampled_requests=8, profile_duration_s=0.015))
artifacts = profile.artifacts("memcached")
print(stable_digest(artifacts))
print(stable_digest(extract_service_features(artifacts)))
"""


class TestProfileAcrossInterpreters:
    def test_digests_do_not_depend_on_the_str_hash_seed(self):
        # Python salts str hashes per process; a profile (and the
        # features and checkpoint keys derived from it) must not.
        src = str(Path(repro.__file__).resolve().parent.parent)
        digests = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _PROFILE_DIGESTS], env=env,
                capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


class TestProfilePersistence:
    def test_round_trip_keeps_the_iform_table(self, memcached_profile,
                                              tmp_path):
        path = str(tmp_path / "profile.bin")
        save_profile(path, memcached_profile)
        table = load_profile(path).artifacts("memcached").instruction_table
        saved = memcached_profile.artifacts("memcached").instruction_table
        assert list(table.items()) == list(saved.items())

    def test_older_layout_is_a_miss(self, memcached_profile, tmp_path):
        path = str(tmp_path / "profile.bin")
        integrity.save_object(path, memcached_profile,
                              schema=PROFILE_SCHEMA,
                              version=PROFILE_VERSION - 1)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            load_profile(path)
        assert excinfo.value.reason == "version"
        assert not (tmp_path / "profile.bin.quarantined").exists()

    def test_socialnet_profile_ships_statistics_not_samples(self):
        # The seed-7 social-network profile at the clone benchmark's
        # budget: 7.03 MB while regions carried address traces and sites
        # outcome arrays, 0.66 MB as statistics.
        import pickle

        profile = profile_deployment(
            _socialnet_4node(), LoadSpec.open_loop(2_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.2, seed=7),
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.06))
        assert len(pickle.dumps(profile)) < 1_000_000
        for artifacts in profile.services.values():
            for record in (artifacts.data_regions + artifacts.instr_regions
                           + artifacts.threads + [artifacts.branches]):
                assert not any(isinstance(value, np.ndarray)
                               for value in vars(record).values())


class TestReuseDistances:
    def test_repeated_line_distance_zero(self):
        addresses = np.array([0, 0, 0], dtype=np.int64)
        distances = reuse_distances(addresses)
        assert list(distances) == [-1, 0, 0]

    def test_cyclic_sequence(self):
        # Two lines alternating: each reuse skips one distinct line.
        addresses = np.array([0, 64, 0, 64], dtype=np.int64)
        distances = reuse_distances(addresses)
        assert list(distances) == [-1, -1, 1, 1]

    def test_sequential_sweep_distance_is_footprint(self):
        lines = 32
        addresses = np.tile(np.arange(lines) * 64, 3).astype(np.int64)
        distances = reuse_distances(addresses)
        revisits = distances[lines:]
        assert (revisits == lines - 1).all()

    def test_matches_explicit_lru_simulation(self):
        # Mattson stack distances must agree with the LRU simulator.
        from repro.hw.cache import CacheConfig, SetAssociativeCache
        rng = np.random.default_rng(0)
        addresses = (rng.integers(0, 64, size=800) * 64).astype(np.int64)
        distances = reuse_distances(addresses)
        for size_lines in (8, 16, 32):
            # Fully-associative LRU of size_lines lines.
            cache = SetAssociativeCache(
                CacheConfig("fa", size_lines * 64, size_lines, 1))
            hits_sim = sum(cache.access(int(a)) for a in addresses)
            hits_mattson = int(((distances >= 0)
                                & (distances < size_lines)).sum())
            assert hits_sim == hits_mattson


class TestWorkingSetInversion:
    def test_eq1_sequential_loop_lands_in_its_bin(self):
        # A loop over 16KB must invert to ~all accesses at the 16KB bin.
        lines = 16 * 1024 // 64
        addresses = np.tile(np.arange(lines) * 64, 6).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 20)
        inverted = invert_data_hits(profile)
        top_bin = max(inverted, key=inverted.get)
        assert top_bin == 16 * 1024

    def test_eq1_conservation(self):
        rng = np.random.default_rng(1)
        addresses = (rng.integers(0, 512, size=3000) * 64).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 22)
        inverted = invert_data_hits(profile)
        assert sum(inverted.values()) == pytest.approx(profile.hits[-1])

    def test_eq2_line_grain_multiplier(self):
        lines = 64
        addresses = np.tile(np.arange(lines) * 64, 4).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 16)
        per_line = invert_instruction_hits(profile, line_grain_hits=True)
        direct = invert_instruction_hits(profile, line_grain_hits=False)
        # The 16x factor applies to every non-smallest bin.
        for size in per_line:
            if size > 64 and size in direct:
                assert per_line[size] == pytest.approx(16 * direct[size])

    def test_monotone_hits(self, memcached_artifacts):
        # Every region is swept in the steady state: each access hits a
        # cache as large as the sweep's largest size.
        for region in memcached_artifacts.data_regions:
            assert all(a <= b + 1e-9 for a, b in zip(region.hits,
                                                     region.hits[1:]))
            assert region.hits[-1] == pytest.approx(region.total_weight)

    def test_memcached_store_visible_in_big_bins(self, memcached_artifacts):
        from repro.core.features import extract_service_features

        inverted = extract_service_features(memcached_artifacts).data_wsets
        big = sum(v for k, v in inverted.items() if k >= 1 << 20)
        assert big > 0   # the ~41MB value store shows up

    def test_regularity_detects_sequences(self):
        seq = (np.arange(100) * 64).astype(np.int64)
        rng = np.random.default_rng(2)
        rand = (rng.integers(0, 10000, size=100) * 64).astype(np.int64)
        assert regularity_ratio(seq) > 0.9
        assert regularity_ratio(rand) < 0.3

    def test_shared_ratio(self):
        a = (np.arange(10) * 64).astype(np.int64)
        b = (np.arange(5) * 64).astype(np.int64)
        assert shared_ratio(a, b) == pytest.approx(0.5)


class TestInstructionMix(object):
    def test_mix_sums_to_one(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert sum(profile.mix.normalized().values()) == pytest.approx(1.0)

    def test_instructions_per_request_close_to_model(self,
                                                     memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        # memcached GET ~8.4k user instructions, SET ~9.2k.
        assert 7000 < profile.instructions_per_request < 10000

    def test_branch_fraction_sane(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert 0.03 < profile.branch_fraction() < 0.3

    def test_clusters_nonempty(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert profile.clusters
        clustered = {n for cluster in profile.clusters for n in cluster}
        assert clustered == set(
            str(k) for k in profile.mix.counts
        )


class TestBranchProfile:
    def test_distribution_weighted(self, memcached_artifacts):
        profile = profile_branches(memcached_artifacts)
        assert profile.rate_distribution.total > 0
        assert 0.5 < profile.mean_taken_rate <= 1.0

    def test_bins_on_grid(self, memcached_artifacts):
        profile = profile_branches(memcached_artifacts)
        for (m, n, _direction) in profile.rate_distribution.counts:
            assert 1 <= m <= 10 and 1 <= n <= 10

    def test_rates_for_bin_roundtrip(self):
        from repro.profiling.branches import BranchProfile
        taken, transition = BranchProfile.rates_for_bin((5, 4, True))
        assert taken == pytest.approx(1 - 2**-5)
        assert transition == pytest.approx(2**-4)


class TestSyscallAndNetModel:
    def test_templates_per_operation(self, memcached_artifacts):
        profile = profile_syscalls(memcached_artifacts)
        template = profile.template("get")
        names = [entry.name for entry in template]
        assert "recv" in names and "sendmsg" in names
        # recv comes before sendmsg in the reconstructed order.
        assert names.index("recv") < names.index("sendmsg")

    def test_epoll_detected(self, memcached_artifacts):
        profile = profile_network_model(memcached_artifacts)
        assert profile.server_model is ServerNetworkModel.IO_MULTIPLEXING

    def test_blocking_detected_for_mongodb(self):
        deployment = Deployment.single(build_mongodb())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=5, page_cache_bytes=4 * 1024**3)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(4),
                                     config)
        net = profile_network_model(profile.artifacts("mongodb"))
        assert net.server_model is ServerNetworkModel.BLOCKING

    def test_payload_sizes_observed(self, memcached_artifacts):
        profile = profile_network_model(memcached_artifacts)
        assert profile.tx_bytes.mean > 1000   # 4KB values dominate


class TestThreadModel:
    def test_memcached_worker_pool_recovered(self, memcached_artifacts):
        profile = profile_thread_model(memcached_artifacts)
        workers = profile.worker_classes()
        assert workers
        fixed = [cls for cls in workers if not cls.scales_with_connections]
        assert any(cls.count == 4 for cls in fixed)

    def test_mongodb_scaling_workers_recovered(self):
        deployment = Deployment.single(build_mongodb())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=5, page_cache_bytes=4 * 1024**3)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(16),
                                     config)
        threads = profile_thread_model(profile.artifacts("mongodb"))
        assert any(cls.scales_with_connections
                   for cls in threads.worker_classes())

    def test_roles_cover_acceptor_and_background(self, memcached_artifacts):
        profile = profile_thread_model(memcached_artifacts)
        roles = {cls.role for cls in profile.classes}
        assert "acceptor" in roles
        assert "background" in roles


class TestDependencies:
    def test_bins_on_grid(self, memcached_artifacts):
        profile = profile_dependencies(memcached_artifacts)
        from repro.hw.ir import DEP_DISTANCE_BINS
        for edge in profile.raw:
            assert edge in DEP_DISTANCE_BINS

    def test_chase_fraction_in_range(self, memcached_artifacts):
        profile = profile_dependencies(memcached_artifacts)
        assert 0.0 <= profile.pointer_chase_frac <= 1.0
        # memcached's lookup block chases ~25% of the time, diluted by
        # the other blocks.
        assert profile.pointer_chase_frac > 0.02
